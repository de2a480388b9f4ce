#!/usr/bin/env python3
"""Self-tests for tools/lint_dvemig.py, run under ctest.

Each rule gets the same treatment as the model checker: plant the bug it
exists for in a scratch tree and prove the rule catches it — and stays quiet
on the real sources.
"""
from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
LINTER = REPO / "tools" / "lint_dvemig.py"


def run_lint(root: pathlib.Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root)],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


def lint_tree(files: dict[str, str]) -> tuple[int, str]:
    """Lint a scratch tree holding only `files` (repo-relative path -> text)."""
    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in files.items():
            tgt = pathlib.Path(tmp) / rel
            tgt.parent.mkdir(parents=True, exist_ok=True)
            tgt.write_text(text)
        return run_lint(pathlib.Path(tmp))


class RepoIsClean(unittest.TestCase):
    def test_whole_repo_lints_clean(self) -> None:
        code, out = run_lint(REPO)
        self.assertEqual(code, 0, out)


class OneFieldList(unittest.TestCase):
    """A writer/reader pair that spells out its wire format by hand is flagged,
    so none of the format bugs such a pair can hold survives; a pair that
    delegates to one field list passes."""

    # A hand-written pair in the style every record used before field lists.
    HAND_WRITTEN = (
        "void write_area(BinaryWriter& w, const VmAreaImage& a) {\n"
        "  w.u64(a.start);\n"
        "  w.u32(a.prot);\n"
        "  w.bytes(pad);\n"
        "  w.str(a.name);\n"
        "}\n"
        "\n"
        "VmAreaImage read_area(BinaryReader& r) {\n"
        "  VmAreaImage a;\n"
        "  a.start = r.u64();\n"
        "  a.prot = r.u32();\n"
        "  r.skip(kPad);\n"
        "  a.name = r.str();\n"
        "  return a;\n"
        "}\n"
    )

    DELEGATING = (
        "void Area::serialize(BinaryWriter& w) const { put(w, *this); }\n"
        "\n"
        "Area Area::deserialize(BinaryReader& r) {\n"
        "  Area a;\n"
        "  get(r, a);\n"
        "  return a;\n"
        "}\n"
    )

    def lint_src(self, body: str) -> tuple[int, str]:
        return lint_tree({"src/ckpt/synthetic.cpp": body})

    def assert_flagged(self, body: str) -> None:
        code, out = self.lint_src(body)
        self.assertNotEqual(code, 0, out)
        self.assertIn("[one-field-list]", out)
        self.assertIn("write_area", out)

    def plant(self, old: str, new: str) -> str:
        self.assertIn(old, self.HAND_WRITTEN)
        return self.HAND_WRITTEN.replace(old, new, 1)

    def test_catches_width_change_on_read_side(self) -> None:
        self.assert_flagged(self.plant("a.start = r.u64();", "a.start = r.u32();"))

    def test_catches_dropped_pad_skip(self) -> None:
        self.assert_flagged(self.plant("  r.skip(kPad);\n", ""))

    def test_catches_reordered_fields(self) -> None:
        self.assert_flagged(
            self.plant(
                "a.start = r.u64();\n  a.prot = r.u32();",
                "a.prot = r.u32();\n  a.start = r.u64();",
            )
        )

    def test_catches_write_only_field(self) -> None:
        self.assert_flagged(self.plant("w.str(a.name);", "w.str(a.name);\n  w.u8(0);"))

    def test_delegating_pair_passes(self) -> None:
        code, out = self.lint_src(self.DELEGATING)
        self.assertEqual(code, 0, out)
        self.assertNotIn("[one-field-list]", out)

    def test_lone_writer_is_not_a_pair(self) -> None:
        writer_only = self.HAND_WRITTEN[: self.HAND_WRITTEN.index("VmAreaImage read_area")]
        _, out = self.lint_src(writer_only)
        self.assertNotIn("[one-field-list]", out)

    def test_real_tree_has_no_hand_written_pairs(self) -> None:
        _, out = run_lint(REPO)
        self.assertNotIn("[one-field-list]", out)


class PhaseSpanMultiline(unittest.TestCase):
    """The phase-span rule must see assignments that wrap across lines, and
    only real span operations may satisfy it."""

    def lint_snippet(self, body: str) -> str:
        return lint_tree({"src/mig/synthetic.cpp": body})[1]

    def test_multiline_phase_write_without_span_is_flagged(self) -> None:
        out = self.lint_snippet(
            "void f() {\n"
            "  phase_ =\n"
            "      Phase::freeze;\n"
            "\n\n\n\n\n"
            "  unrelated();\n"
            "}\n"
        )
        self.assertIn("[phase-span]", out)

    def test_multiline_phase_write_with_adjacent_span_passes(self) -> None:
        out = self.lint_snippet(
            "void f() {\n"
            "  span_freeze_ = tracer().begin(\"freeze\");\n"
            "  phase_ =\n"
            "      Phase::freeze;\n"
            "}\n"
        )
        self.assertNotIn("[phase-span]", out)

    def test_comment_mentioning_span_is_not_a_span_op(self) -> None:
        out = self.lint_snippet(
            "void f() {\n"
            "  /* the receive span closes with this phase */\n"
            "  phase_ = Phase::retired;\n"
            "}\n"
        )
        self.assertIn("[phase-span]", out)

    def test_unrelated_span_call_is_not_a_span_op(self) -> None:
        out = self.lint_snippet(
            "void f(BinaryReader& r) {\n"
            "  const auto rest = r.span(r.remaining());\n"
            "  phase_ = Phase::receiving;\n"
            "}\n"
        )
        self.assertIn("[phase-span]", out)

    def test_each_real_span_op_passes(self) -> None:
        for op in (
            'OBS_SPAN("mig.x");',
            'span_x_ = tracer().begin(track, "mig.x");',
            "tracer().begin_at(track, name, t);",
            "tracer().end(span_x_);",
            "tracer().end_at(span_x_, t);",
            'tracer().attr(span_x_, "k", "v");',
            "close_span(span_x_);",
            "span_x_ = 0;",
        ):
            with self.subTest(op=op):
                out = self.lint_snippet(
                    "void f() {\n  " + op + "\n  phase_ = Phase::done;\n}\n"
                )
                self.assertNotIn("[phase-span]", out)


class NoLinearFilterScan(unittest.TestCase):
    """Linear scans over filter containers are only legal in the index files."""

    SCAN = (
        "void f() {\n"
        "  for (const auto& [id, rule] : rules_) {\n"
        "    (void)id; (void)rule;\n"
        "  }\n"
        "}\n"
    )

    def lint_snippet(self, rel: str, body: str) -> tuple[int, str]:
        return lint_tree({rel: body})

    def test_scan_outside_index_files_is_flagged(self) -> None:
        code, out = self.lint_snippet("src/mig/other.cpp", self.SCAN)
        self.assertNotEqual(code, 0)
        self.assertIn("[no-linear-filter-scan]", out)
        self.assertIn("src/mig/other.cpp:2", out)

    def test_member_specs_scan_is_flagged(self) -> None:
        _, out = self.lint_snippet(
            "src/stack/other.cpp",
            "void g(Session& s) {\n"
            "  for (const SpecState& state : s.specs) { (void)state; }\n"
            "}\n",
        )
        self.assertIn("[no-linear-filter-scan]", out)

    def test_same_scan_in_index_implementation_passes(self) -> None:
        # Identical text, but in the exempt capture index implementation
        # (its session-teardown loop walks a session's specs).
        _, out = self.lint_snippet("src/mig/capture.cpp", self.SCAN)
        self.assertNotIn("[no-linear-filter-scan]", out)

    def test_same_scan_in_translation_is_flagged(self) -> None:
        # translation.cpp has no scan over rules_ left, so it is no longer
        # exempt: a per-packet rule walk there must be caught.
        code, out = self.lint_snippet("src/mig/translation.cpp", self.SCAN)
        self.assertNotEqual(code, 0)
        self.assertIn("[no-linear-filter-scan]", out)
        self.assertIn("src/mig/translation.cpp:2", out)

    def test_call_and_local_ranges_are_not_matches(self) -> None:
        # `specs_for(...)` is a call, and `specs` a plain local — neither is a
        # scan over the indexed member containers.
        _, out = self.lint_snippet(
            "src/mig/other.cpp",
            "void h(MigrationSession& ms, std::vector<CaptureSpec> specs) {\n"
            "  for (CaptureSpec& s : specs_for(ms)) all.push_back(s);\n"
            "  for (const CaptureSpec& s : specs) use(s);\n"
            "}\n",
        )
        self.assertNotIn("[no-linear-filter-scan]", out)

    def test_real_tree_has_no_stray_scans(self) -> None:
        _, out = run_lint(REPO)
        self.assertNotIn("[no-linear-filter-scan]", out)


class NoMaterialize(unittest.TestCase):
    """A flat-byte accessor on the transfer path would expand page fill again;
    it is flagged outside the allow-list, where the same call passes."""

    EXPAND = (
        "void StripeSender::send(MsgType inner, const Bytes& payload) {\n"
        "  const auto flat = payload.view();\n"
        "  (void)flat;\n"
        "}\n"
    )

    def test_expanding_accessor_on_transfer_path_is_flagged(self) -> None:
        code, out = lint_tree({"src/mig/protocol.cpp": self.EXPAND})
        self.assertNotEqual(code, 0)
        self.assertIn("src/mig/protocol.cpp:2: [no-materialize]", out)

    def test_each_accessor_is_flagged(self) -> None:
        for call in (
            "p.payload.copy()",
            "w.buffer()",
            "w.span_from(at)",
            "r.span(r.remaining())",
            "seg->view()",
        ):
            with self.subTest(call=call):
                code, out = lint_tree(
                    {"src/stack/tcp_socket.cpp": "void f() {\n  use(" + call + ");\n}\n"}
                )
                self.assertNotEqual(code, 0)
                self.assertIn("[no-materialize]", out)

    def test_chunk_wise_reads_pass(self) -> None:
        code, out = lint_tree(
            {
                "src/mig/transport.cpp": (
                    "void f(BinaryReader& r, Bytes& b) {\n"
                    "  parked_.push_back(r.bytes(r.remaining()));\n"
                    "  r.skip(4096);\n"
                    "  std::span<const std::uint8_t> s(hdr);\n"
                    "}\n"
                )
            }
        )
        self.assertEqual(code, 0, out)

    def test_same_call_in_allowed_file_passes(self) -> None:
        code, out = lint_tree({"src/common/serial.cpp": self.EXPAND})
        self.assertNotIn("[no-materialize]", out)

    def test_udp_receive_path_is_not_exempt(self) -> None:
        # Datagrams share their packet's payload; a flat copy there is flagged.
        code, out = lint_tree(
            {
                "src/stack/udp_socket.cpp": (
                    "void UdpSocket::datagram_arrived(const net::Packet& p) {\n"
                    "  queue(UdpDatagram{from(p), p.payload.copy()});\n"
                    "}\n"
                )
            }
        )
        self.assertNotEqual(code, 0)
        self.assertIn("src/stack/udp_socket.cpp:2: [no-materialize]", out)

    def test_real_tree_expands_only_where_allowed(self) -> None:
        _, out = run_lint(REPO)
        self.assertNotIn("[no-materialize]", out)


class PacketByRef(unittest.TestCase):
    """A Packet taken by value in src/net moves the whole packet once more per
    hop; it is flagged in every parameter form, and references, explicit
    copies and the make_* factories pass."""

    def test_each_by_value_form_is_flagged(self) -> None:
        for decl in (
            "using PacketSink = std::function<void(Packet)>;",
            "void Switch::forward(Ipv4Addr from, Packet p) {}",
            "auto sink = [this](net::Packet p) { rx(std::move(p)); };",
            "void transmit(int rail,\n    const Packet p);",
        ):
            with self.subTest(decl=decl):
                code, out = lint_tree({"src/net/link.cpp": decl + "\n"})
                self.assertNotEqual(code, 0)
                line = decl.count("\n") + 1  # where the parameter is
                self.assertIn(f"src/net/link.cpp:{line}: [packet-by-ref]", out)

    def test_references_copies_and_factories_pass(self) -> None:
        code, out = lint_tree(
            {
                "src/net/router.cpp": (
                    "using PacketSink = std::function<void(Packet&&)>;\n"
                    "void from_client(Packet&& p) { link.transmit(Packet(p)); }\n"
                    "bool checksum_ok(const Packet& p);\n"
                    "Packet make_udp(Endpoint from, Endpoint to, Bytes payload);\n"
                    "Packet make_probe(Packet p);\n"
                    "constexpr std::size_t kSize = sizeof(Packet);\n"
                )
            }
        )
        self.assertEqual(code, 0, out)

    def test_same_signature_outside_net_passes(self) -> None:
        code, out = lint_tree({"src/stack/net_stack.cpp": "void rx(net::Packet p);\n"})
        self.assertNotIn("[packet-by-ref]", out)

    def test_real_tree_passes_packets_by_reference(self) -> None:
        _, out = run_lint(REPO)
        self.assertNotIn("[packet-by-ref]", out)


class SocketTableOwner(unittest.TestCase):
    """Only src/stack edits ehash/bhash; everything else detaches/attaches."""

    EDIT = (
        "void rehash(stack::NetStack& st, const stack::TcpSocket::Ptr& s) {\n"
        "  st.table().ehash_insert(s, stack::FourTuple{s->local(), s->remote()});\n"
        "}\n"
    )

    def test_table_edit_in_mig_is_flagged(self) -> None:
        code, out = lint_tree({"src/mig/restore.cpp": self.EDIT})
        self.assertNotEqual(code, 0)
        self.assertIn("src/mig/restore.cpp:2: [socket-table-owner]", out)

    def test_same_edit_in_stack_passes(self) -> None:
        code, out = lint_tree({"src/stack/restore.cpp": self.EDIT})
        self.assertEqual(code, 0, out)
        self.assertNotIn("[socket-table-owner]", out)

    def test_real_tree_edits_tables_only_in_stack(self) -> None:
        _, out = run_lint(REPO)
        self.assertNotIn("[socket-table-owner]", out)


class DesignInventory(unittest.TestCase):
    """DESIGN.md §3 must name every src/ subdirectory that holds sources."""

    DESIGN_BOTH = (
        "# design\n\n## 3. Module inventory\n\n"
        "```\nsrc/alpha/   the alpha module\nsrc/beta/    the beta module\n```\n\n"
        "## 4. Next section\n"
    )

    def make_tree(self, tmp: str, design: str) -> pathlib.Path:
        root = pathlib.Path(tmp)
        for mod in ("alpha", "beta"):
            d = root / "src" / mod
            d.mkdir(parents=True)
            (d / "mod.hpp").write_text("// placeholder\n")
        (root / "DESIGN.md").write_text(design)
        return root

    def test_complete_inventory_passes(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_lint(self.make_tree(tmp, self.DESIGN_BOTH))
        self.assertEqual(code, 0, out)
        self.assertNotIn("[design-inventory]", out)

    def test_omitted_module_is_flagged(self) -> None:
        # Planted omission: src/beta exists on disk but not in §3.
        design = self.DESIGN_BOTH.replace("src/beta/    the beta module\n", "")
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_lint(self.make_tree(tmp, design))
        self.assertNotEqual(code, 0)
        self.assertIn("[design-inventory]", out)
        self.assertIn("src/beta/", out)
        self.assertNotIn("src/alpha/", out)

    def test_mention_outside_section_3_does_not_count(self) -> None:
        # src/beta is mentioned, but only in §4 — the inventory is still short.
        design = self.DESIGN_BOTH.replace(
            "src/beta/    the beta module\n", ""
        ) + "\nsrc/beta/ discussed here instead.\n"
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_lint(self.make_tree(tmp, design))
        self.assertNotEqual(code, 0)
        self.assertIn("[design-inventory]", out)

    def test_real_design_covers_real_tree(self) -> None:
        # The actual repo's §3 must cover the actual src/ tree (also implied by
        # RepoIsClean, but pinned here so a failure names the rule).
        _, out = run_lint(REPO)
        self.assertNotIn("[design-inventory]", out)


class ReadmeBenchTargets(unittest.TestCase):
    """README bench commands must name real targets in bench/CMakeLists.txt."""

    def make_tree(self, tmp: str, readme: str) -> pathlib.Path:
        root = pathlib.Path(tmp)
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "CMakeLists.txt").write_text(
            "dvemig_bench(fig_real)\nadd_executable(micro_real micro_real.cpp)\n"
        )
        (root / "README.md").write_text(readme)
        return root

    def test_real_targets_pass(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_lint(
                self.make_tree(
                    tmp, "Run `./build/bench/fig_real` then ./build/bench/micro_real.\n"
                )
            )
        self.assertEqual(code, 0, out)
        self.assertNotIn("[readme-bench-targets]", out)

    def test_bogus_target_is_flagged(self) -> None:
        # Planted rot: the walkthrough names a bench that was never added.
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_lint(
                self.make_tree(
                    tmp,
                    "Run `./build/bench/fig_real`.\n"
                    "Then `./build/bench/fig_deleted 2` reproduces Fig. 9.\n",
                )
            )
        self.assertNotEqual(code, 0)
        self.assertIn("[readme-bench-targets]", out)
        self.assertIn("fig_deleted", out)
        self.assertIn("README.md:2", out)
        self.assertNotIn("fig_real'", out)

    def test_real_readme_names_real_targets(self) -> None:
        _, out = run_lint(REPO)
        self.assertNotIn("[readme-bench-targets]", out)


if __name__ == "__main__":
    unittest.main()
