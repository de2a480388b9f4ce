#!/usr/bin/env python3
"""Repo-specific lint rules clang-tidy cannot express.

Rules
-----
naked-abort
    ``std::abort``/C ``abort()``/C ``assert()`` are forbidden outside
    ``src/common/assert.hpp``: contract failures must go through the DVEMIG_*
    macros so they print a diagnostic and stay enabled in every build type.
    (``sock->abort()``/``sock.abort()`` — the TCP RST path — and
    ``static_assert`` are not matches.)

reader-unchecked-length
    A length read off the wire (``BinaryReader::u32()``/``u64()``) must not be
    fed to an allocation (``reserve``/``resize``/``Buffer(n)``) without a
    bounds check between the read and the use. BinaryReader's own accessors
    bounds-check every *read*, but an attacker-controlled length used as an
    allocation size bypasses that. A check is any later mention of the variable
    in a DVEMIG_EXPECTS/DVEMIG_ASSERT, a comparison against a cap constant
    (``kMax*``), or ``std::min``.

socket-table-owner
    ``ehash_insert``/``ehash_remove``/``bhash_insert``/``bhash_remove`` may be
    called only under ``src/stack/``. Section V-C's unhash and rehash are
    ``Socket::detach()``/``attach()``, which hash by socket state (a CLOSED
    TCP socket never goes into ehash); a hand-rolled table edit elsewhere is
    how such copies drift from the stack's invariant. Tests (which corrupt
    tables on purpose) are not linted.

phase-span
    In ``src/mig/``, every write to a migration phase enum (``phase_ =
    Phase::...``) must sit within 3 lines of a real span operation:
    ``OBS_SPAN``, ``tracer().begin/begin_at/end/end_at/attr(...)``,
    ``close_span(...)``, or a store to a ``span_*`` handle. Comments and other
    calls that merely mention "span" (``r.span(n)``) do not count.
    The phase enum and the span tree are two views of the same state machine;
    a phase transition without the matching trace span silently disappears
    from the Chrome-trace/Perfetto timeline the benches and CI archive.
    The assignment is matched across line breaks (``phase_ =`` on one line,
    ``Phase::...`` on the next is still a transition).

no-linear-filter-scan
    Range-for loops over the capture-spec / translation-rule containers
    (``rules_``, ``specs_``, ``.specs``/``->specs`` members) are forbidden
    everywhere under src/ except src/mig/capture.cpp, and there only for the
    session-teardown loop in ``CaptureManager::drop_from_index``, which walks
    one ending session's specs to unlink them from the index — never per
    packet. Per-packet matching is O(1) through the tuple hash indexes of
    DESIGN.md §12; a new linear scan over those containers quietly
    reintroduces the O(n·m) hot path the index removed. The linear-scan
    semantics live on only as test oracles (tests/filter_oracles.hpp).
    Loops over plain locals (e.g. a deserialized ``specs`` vector) or calls
    such as ``specs_for(...)`` are not matches — the rule anchors on
    member-style container names.

one-field-list
    In ``src/``, a serialize/deserialize pair (``serialize*``/``deserialize*``
    methods, ``write_X``/``read_X`` free helpers taking a BinaryWriter& or
    BinaryReader&) defined in one file must not spell out the wire format by
    hand: neither half may call a primitive wire operation (``u8`` ...
    ``f64``, ``str``, ``blob``, ``bytes``, ``skip``, ``span``, ``fill``) on its
    writer/reader. A record states its fields once, as a ``fields(io, self)``
    list run by the Put/Get adapters of src/common/serial.hpp, and both halves
    delegate to it — so a field cannot be written one way and read another.
    A lone writer or reader (the other half in another file, or none) is not
    a pair. The golden-bytes test (tests/test_wire.cpp) catches a format
    change made through the field list itself.

no-materialize
    Page payloads and structure pads travel as fill runs (``dvemig::Bytes``,
    DESIGN.md §12.8) from the serializer to the parser. The accessors that
    hand out flat bytes expand every run they cover: ``.view()`` and
    ``.copy()`` of a Bytes value, ``BinaryWriter::buffer()``/``span_from()``
    and ``BinaryReader::span()``. In ``src/`` they may be called only in the
    files of ``MATERIALIZE_ALLOWED``: the Bytes/serializer implementation
    itself. Anywhere else such a call would quietly expand ~100 MiB of page
    fill per precopy round again. Received bytes stay Bytes up to their
    parser: a TCP reader cuts its messages in place (``cut_messages``), and
    a UDP datagram shares its packet's payload. (A writer's ``take()`` also returns flat bytes; it is
    left to the test ``MigrationTest.PageFillStaysVirtual``, which counts
    every expanded byte of a striped precopy, because control messages take
    it legitimately everywhere.)

packet-by-ref
    In ``src/net/``, a ``Packet`` parameter — of a function, a lambda or a
    ``std::function`` signature, named or not — must be a reference
    (``Packet&&`` to take the packet on, ``const Packet&`` to look at it).
    Every link hop runs a chain of sinks (link, switch or router, host), and a
    by-value parameter at any stage moves the whole 88-byte packet again.
    Broadcast copies are written out as ``Packet(p)``. The ``make_*``
    factories, which build packets, are exempt, as are ``sizeof``/``alignof``.

design-inventory
    Every ``src/`` subdirectory that contains sources must be named in
    DESIGN.md's §3 module inventory (``src/<dir>/``). The inventory is the
    map newcomers navigate by; a subsystem that ships without a §3 line is
    invisible to them. Judged against the tree, so the rule fires the moment
    a new ``src/<dir>`` lands without its documentation.

readme-bench-targets
    Every ``./build/bench/<name>`` command in README.md must name a real
    target in bench/CMakeLists.txt. The "Reproducing the figures" walkthrough
    is only worth trusting if each command it prints actually builds; a
    renamed or deleted bench must take its README line with it.

The two doc rules are repo-level: they read DESIGN.md / README.md /
bench/CMakeLists.txt relative to --root and are skipped when those files do
not exist (so file-scoped scratch runs stay quiet).

Exit status is nonzero if any violation is found. Usage:
    tools/lint_dvemig.py [--root REPO_ROOT] [file ...]
With no files, lints every .cpp/.hpp under src/.
"""
from __future__ import annotations

import argparse
import pathlib
import re
import sys

ABORT_ALLOWED = {"src/common/assert.hpp"}

# `abort(`/`assert(` not preceded by an identifier char, `.`, `->`, `::`, or
# `_`. (`::` excludes member definitions like `TcpSocket::abort()`; bare
# `std::abort` still matches because the regex anchors on the `s` of `std`.)
RE_NAKED_ABORT = re.compile(r"(?<![\w.>:])(?:std::\s*)?abort\s*\(")
RE_NAKED_ASSERT = re.compile(r"(?<![\w.>:])assert\s*\(")
# Declarations such as `void abort();` are the RST-path member, not a call.
RE_ABORT_DECL = re.compile(r"\bvoid\s+(?:\w+::)*abort\s*\(")
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')

RE_LEN_READ = re.compile(
    r"(?:auto|const auto|std::uint32_t|std::uint64_t|const std::uint32_t|"
    r"const std::uint64_t|uint32_t|uint64_t)\s+(\w+)\s*=\s*\w+(?:\.|->)u(?:32|64)\(\)"
)
RE_TABLE_EDIT = re.compile(r"\b(?:ehash|bhash)_(?:insert|remove)\s*\(")

# Searched over the whole file text (not per line): the assignment regularly
# wraps, e.g. `phase_ =\n    Phase::freeze;`, and a per-line scan silently
# missed those transitions.
RE_PHASE_WRITE = re.compile(r"\bphase_?\s*=\s*(?:\w+::)*Phase::\w+")
# Real span operations only: a comment or an unrelated `.span(` call near a
# phase write does not keep the trace in step with it.
RE_SPAN_OP = re.compile(
    r"\bOBS_SPAN\b"
    r"|\btracer\s*\(\s*\)\s*\.\s*(?:begin|begin_at|end|end_at|attr)\s*\("
    r"|\bclose_span\s*\("
    r"|\bspan_\w*\s*=(?!=)"
)

# no-linear-filter-scan: a range-for whose range names a filter container in
# member style. Bare locals (`: specs)`) intentionally do not match.
RE_LINEAR_FILTER_SCAN = re.compile(
    r"\bfor\s*\([^;)]*:\s*[^)]*(?:\brules_\b|\bspecs_\b|(?:\.|->)specs\b)"
)
# capture.cpp: drop_from_index's per-session teardown loop only (see above).
LINEAR_SCAN_ALLOWED = {"src/mig/capture.cpp"}

# no-materialize: calls of the run-expanding accessors (see above).
RE_MATERIALIZE = re.compile(
    r"(?:\.|->)\s*(?:(?:view|copy|buffer)\s*\(\s*\)|(?:span_from|span)\s*\()"
)
MATERIALIZE_ALLOWED = {
    "src/common/bytes.hpp",
    "src/common/bytes.cpp",
    "src/common/serial.hpp",
    "src/common/serial.cpp",
}

# packet-by-ref: a parameter-list entry of type Packet taken by value, named
# or not (`(Packet p)`, `, const net::Packet)`, `(Packet p = {})`).
RE_PACKET_BY_VALUE = re.compile(
    r"[(,]\s*((?:const\s+)?(?:net::)?Packet)\s*(?:\w+\s*)?[,)=]"
)
PACKET_BY_VALUE_EXEMPT = re.compile(r"^(?:make_\w+|sizeof|alignof)$")

# one-field-list: function definitions taking a BinaryWriter&/BinaryReader&
# whose name marks them as one half of a wire-format pair.
RE_SERIAL_FN = re.compile(
    r"\b((?:\w+::)*)(serialize\w*|deserialize\w*|write_\w+|read_\w+)"
    r"\s*\(\s*Binary(Writer|Reader)\s*&\s*(\w+)"
)
WIRE_PRIMS = "u8|u16|u32|u64|i32|i64|f64|str|blob|bytes|skip|span|fill"

# How far (in lines) an allocation may sit from the length read it consumes.
SCAN_WINDOW = 40
# How far (in lines) a span operation may sit from the phase write it mirrors.
PHASE_SPAN_WINDOW = 3


def strip_noise(line: str) -> str:
    """Remove string literals and line comments so they can't fake matches."""
    return RE_LINE_COMMENT.sub("", RE_STRING.sub('""', line))


def extract_body(text: str, open_brace: int) -> str:
    """Return the brace-balanced body starting at text[open_brace] == '{'."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1 : i]
    return text[open_brace + 1 :]  # unbalanced (truncated file): best effort


def normalize_serial_name(name: str) -> str:
    """deserialize_static -> serialize_static, read_endpoint -> write_endpoint."""
    if name.startswith("deserialize"):
        return "serialize" + name[len("deserialize") :]
    if name.startswith("read_"):
        return "write_" + name[len("read_") :]
    return name


def lint_file(path: pathlib.Path, rel: str, problems: list[str]) -> None:
    try:
        raw_lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        problems.append(f"{rel}:0: [io] cannot read file: {exc}")
        return
    lines = [strip_noise(l) for l in raw_lines]
    text = "\n".join(lines)

    # --- naked-abort ---
    if rel not in ABORT_ALLOWED:
        for i, line in enumerate(lines, 1):
            if RE_NAKED_ABORT.search(line) and not RE_ABORT_DECL.search(line):
                problems.append(
                    f"{rel}:{i}: [naked-abort] raw abort() — use the DVEMIG_* "
                    "contract macros from src/common/assert.hpp"
                )
            if RE_NAKED_ASSERT.search(line):
                problems.append(
                    f"{rel}:{i}: [naked-abort] C assert() — use DVEMIG_ASSERT "
                    "(stays enabled in release builds)"
                )

    # --- socket-table-owner ---
    if rel.startswith("src/") and not rel.startswith("src/stack/"):
        for i, line in enumerate(lines, 1):
            if RE_TABLE_EDIT.search(line):
                problems.append(
                    f"{rel}:{i}: [socket-table-owner] ehash/bhash edited "
                    "outside src/stack — unhash and rehash through "
                    "Socket::detach()/attach()"
                )

    # --- reader-unchecked-length ---
    for i, line in enumerate(lines, 1):
        m = RE_LEN_READ.search(line)
        if not m:
            continue
        var = m.group(1)
        window = lines[i : i + SCAN_WINDOW]
        alloc = re.compile(
            r"(?:reserve|resize)\s*\(\s*" + re.escape(var) + r"\b"
            r"|Buffer\s+\w+\s*\(\s*" + re.escape(var) + r"\b"
        )
        guard = re.compile(
            r"(?:DVEMIG_EXPECTS|DVEMIG_ASSERT|DVEMIG_ENSURES|std::min|kMax\w*)"
            r"[^;]*\b" + re.escape(var) + r"\b"
            r"|\b" + re.escape(var) + r"\b\s*(?:<=?|>=?)\s*"
        )
        guarded = bool(guard.search(line))
        for w in window:
            if guard.search(w):
                guarded = True
            if alloc.search(w):
                if not guarded:
                    problems.append(
                        f"{rel}:{i}: [reader-unchecked-length] wire length "
                        f"'{var}' used as an allocation size without a bounds "
                        "check (DVEMIG_EXPECTS / cap comparison) first"
                    )
                break

    # Offset of each line's first character in `text`, for mapping whole-text
    # regex matches back to 1-based line numbers.
    line_starts = [0]
    for l in lines:
        line_starts.append(line_starts[-1] + len(l) + 1)

    def line_of(offset: int) -> int:
        lo, hi = 0, len(lines) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    # --- phase-span --- (matched on the joined text: the assignment can wrap)
    if rel.startswith("src/mig/"):
        for m in RE_PHASE_WRITE.finditer(text):
            i = line_of(m.start())
            lo = max(0, i - 1 - PHASE_SPAN_WINDOW)
            hi = min(len(lines), i + PHASE_SPAN_WINDOW)
            if not any(RE_SPAN_OP.search(l) for l in lines[lo:hi]):
                problems.append(
                    f"{rel}:{i}: [phase-span] phase transition without an "
                    "adjacent span begin/end — keep the trace timeline and "
                    "the phase enum in lockstep (see src/obs/span.hpp)"
                )

    # --- no-linear-filter-scan --- (joined text: the for header can wrap)
    if rel not in LINEAR_SCAN_ALLOWED:
        for m in RE_LINEAR_FILTER_SCAN.finditer(text):
            problems.append(
                f"{rel}:{line_of(m.start())}: [no-linear-filter-scan] "
                "range-for over a packet-filter container — per-packet "
                "matching must go through the tuple-hash indexes "
                "(DESIGN.md §12); the only exempt loop is capture.cpp's "
                "session teardown"
            )

    # --- no-materialize ---
    if rel.startswith("src/") and rel not in MATERIALIZE_ALLOWED:
        for i, line in enumerate(lines, 1):
            if RE_MATERIALIZE.search(line):
                problems.append(
                    f"{rel}:{i}: [no-materialize] flat-byte accessor expands "
                    "fill runs — slice, skip or read the Bytes chunk by chunk "
                    "(BinaryReader::bytes/skip, Bytes::for_each_chunk) instead "
                    "(DESIGN.md §12.8)"
                )

    # --- packet-by-ref --- (joined text: parameter lists wrap)
    if rel.startswith("src/net/"):
        for m in RE_PACKET_BY_VALUE.finditer(text):
            # The callee is the identifier before the list's opening paren.
            depth, at = 0, m.start(1)
            while at > 0:
                at -= 1
                if text[at] == ")":
                    depth += 1
                elif text[at] == "(":
                    if depth == 0:
                        break
                    depth -= 1
            callee = re.search(r"(\w*)\s*$", text[:at]).group(1)
            if PACKET_BY_VALUE_EXEMPT.match(callee):
                continue
            problems.append(
                f"{rel}:{line_of(m.start(1))}: [packet-by-ref] Packet taken "
                "by value — take `Packet&&` (or `const Packet&`) so a hop "
                "moves the packet once; copy explicitly with `Packet(p)` "
                "(DESIGN.md §12.9)"
            )

    # --- one-field-list ---
    # Per pair key: the halves present, and where a half first calls a
    # primitive wire operation directly.
    sides: dict[str, set[str]] = {}
    prims: dict[str, int] = {}
    serial_defs = RE_SERIAL_FN.finditer(text) if rel.startswith("src/") else ()
    for m in serial_defs:
        # Definition, not declaration/call: an opening brace before the next
        # semicolon. (Calls never name the Binary* type, declarations end ';'.)
        brace = text.find("{", m.end())
        semi = text.find(";", m.end())
        if brace == -1 or (semi != -1 and semi < brace):
            continue
        key = m.group(1) + normalize_serial_name(m.group(2))
        sides.setdefault(key, set()).add(m.group(3))
        prim = re.search(
            rf"\b{re.escape(m.group(4))}\s*\.\s*(?:{WIRE_PRIMS})\s*\(",
            extract_body(text, brace),
        )
        if prim and key not in prims:
            prims[key] = brace + 1 + prim.start()
    for key, at in sorted(prims.items()):
        if len(sides[key]) == 2:
            problems.append(
                f"{rel}:{line_of(at)}: [one-field-list] {key}: the writer/"
                "reader pair spells out the wire format by hand — state the "
                "fields once as `template <class Io, class Self> static void "
                "fields(Io&, Self&)` (src/common/serial.hpp) and make both "
                "halves delegate to it"
            )


def lint_docs(root: pathlib.Path, problems: list[str]) -> None:
    """Repo-level documentation rules (design-inventory, readme-bench-targets)."""
    design = root / "DESIGN.md"
    src = root / "src"
    if design.exists() and src.is_dir():
        text = design.read_text()
        heading = re.search(r"^##\s*3\..*$", text, re.MULTILINE)
        if heading is None:
            problems.append(
                "DESIGN.md:0: [design-inventory] no '## 3.' module-inventory "
                "section found"
            )
        else:
            line = text.count("\n", 0, heading.start()) + 1
            end = text.find("\n## ", heading.end())
            section = text[heading.end() : end if end != -1 else len(text)]
            for d in sorted(p for p in src.iterdir() if p.is_dir()):
                if not any(d.glob("*.cpp")) and not any(d.glob("*.hpp")):
                    continue
                if f"src/{d.name}/" not in section:
                    problems.append(
                        f"DESIGN.md:{line}: [design-inventory] src/{d.name}/ "
                        "is absent from the §3 module inventory — every src/ "
                        "subdirectory must be documented there"
                    )
    readme = root / "README.md"
    bench_cmake = root / "bench" / "CMakeLists.txt"
    if readme.exists() and bench_cmake.exists():
        targets = set(
            re.findall(
                r"(?:dvemig_bench|add_executable)\s*\(\s*(\w+)",
                bench_cmake.read_text(),
            )
        )
        for i, rline in enumerate(readme.read_text().splitlines(), 1):
            for m in re.finditer(r"\./build/bench/(\w+)", rline):
                if m.group(1) not in targets:
                    problems.append(
                        f"README.md:{i}: [readme-bench-targets] "
                        f"'./build/bench/{m.group(1)}' names no target in "
                        "bench/CMakeLists.txt — every command in the "
                        "walkthrough must actually build"
                    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("files", nargs="*", help="files to lint (default: src/**)")
    args = ap.parse_args()

    root = pathlib.Path(args.root).resolve()
    if args.files:
        targets = [pathlib.Path(f).resolve() for f in args.files]
    else:
        targets = sorted(
            p
            for ext in ("*.cpp", "*.hpp")
            for p in (root / "src").rglob(ext)
        )

    problems: list[str] = []
    lint_docs(root, problems)
    count = 0
    for path in targets:
        if path.suffix not in {".cpp", ".hpp"}:
            continue
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        count += 1
        lint_file(path, rel, problems)

    for p in problems:
        print(p)
    print(
        f"lint_dvemig: {count} files, "
        f"{len(problems)} problem{'s' if len(problems) != 1 else ''}",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
