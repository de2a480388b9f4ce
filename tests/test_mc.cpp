// Model-checker self-test: prove dvemig-mc can actually catch protocol bugs.
//
// Five deliberate mutations of the migration protocol live behind the
// test-only hook in src/mig/test_hooks.hpp. Each one breaks a different layer
// (capture dedup, restore rehash, commit handshake, freeze arming, image
// endpoints), and each must be flagged by the checker's oracles — on the
// *untouched* schedule, no adversarial interleaving needed. A checker that
// cannot find a planted bug proves nothing about a clean HEAD.
#include <gtest/gtest.h>

#include <string>

#include "src/mc/explorer.hpp"

namespace dvemig::mc {
namespace {

using mig::ProtocolMutation;

RunResult zeros_run(const std::string& preset, ProtocolMutation m) {
  DecisionSource decisions({}, DecisionSource::Tail::zeros, 0);
  return run_scenario(preset, m, decisions);
}

// ------------------------------------------------------------ clean baseline

TEST(ModelChecker, HandshakeDfsExhaustsClean) {
  ExploreConfig cfg;
  cfg.preset = "handshake";
  Explorer ex{cfg};
  const ExploreResult r = ex.dfs();
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.has_violation);
  EXPECT_GT(r.runs, 1u);
  EXPECT_GT(r.distinct_states, 1u);
  EXPECT_GT(r.pruned_visited, 0u);  // state hashing must actually prune
}

TEST(ModelChecker, CrashDfsExhaustsClean) {
  ExploreConfig cfg;
  cfg.preset = "crash";
  Explorer ex{cfg};
  const ExploreResult r = ex.dfs();
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.has_violation);
  // Every frame type branches 4 ways (pass/drop/duplicate/kill); the scope is
  // tiny but must cover more than the happy path.
  EXPECT_GT(r.runs, 10u);
}

// Every preset's DFS summary at the CI bound (what dvemig-mc prints), pinned:
// a change to the migration's event schedule or to the protocol-state hash
// moves these numbers even when no oracle fires.
TEST(ModelChecker, PresetSummariesPinned) {
  struct Pin {
    const char* preset;
    std::size_t runs, distinct_states, pruned_visited, pruned_depth, max_trace_len;
  };
  const Pin pins[] = {
      {"handshake", 95, 12, 2207, 154944, 1680},
      {"precopy", 95, 10, 2175, 155043, 1681},
      {"stripe", 100, 15, 2385, 166413, 1713},
      {"freeze", 128, 18, 2886, 135759, 1677},
      {"crash", 25, 6, 0, 0, 8},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.preset);
    ExploreConfig cfg;
    cfg.preset = pin.preset;
    cfg.max_states = 20000;
    Explorer ex{cfg};
    const ExploreResult r = ex.dfs();
    EXPECT_EQ(r.runs, pin.runs);
    EXPECT_EQ(r.distinct_states, pin.distinct_states);
    EXPECT_EQ(r.pruned_visited, pin.pruned_visited);
    EXPECT_EQ(r.pruned_depth, pin.pruned_depth);
    EXPECT_EQ(r.max_trace_len, pin.max_trace_len);
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.has_violation);
  }
}

TEST(ModelChecker, RandomWalkSmoke) {
  ExploreConfig cfg;
  cfg.preset = "handshake";
  cfg.random_runs = 10;
  cfg.seed = 7;
  Explorer ex{cfg};
  const ExploreResult r = ex.random_walk();
  EXPECT_EQ(r.runs, 10u);
  EXPECT_FALSE(r.has_violation);
}

TEST(ModelChecker, DeterministicReplay) {
  const RunResult a = zeros_run("handshake", ProtocolMutation::none);
  const RunResult b = zeros_run("handshake", ProtocolMutation::none);
  EXPECT_EQ(a.final_state_hash, b.final_state_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

// -------------------------------------------------------- seeded mutations

struct MutationCase {
  ProtocolMutation mutation;
  const char* preset;
  const char* expect_rule;  // a violation whose rule starts with this
};

class MutationSelfTest : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationSelfTest, SeededBugIsDetected) {
  const MutationCase& c = GetParam();
  const RunResult mutated = zeros_run(c.preset, c.mutation);
  ASSERT_FALSE(mutated.clean())
      << mutation_name(c.mutation) << " slipped past every oracle";
  bool matched = false;
  for (const auto& v : mutated.violations) {
    matched = matched || v.rfind(c.expect_rule, 0) == 0;
  }
  EXPECT_TRUE(matched) << "expected a '" << c.expect_rule
                       << "' violation; got: " << mutated.violations.front();
  // Control: the same run without the mutation must be clean, or the
  // "detection" above is just oracle noise.
  const RunResult control = zeros_run(c.preset, ProtocolMutation::none);
  EXPECT_TRUE(control.clean())
      << "preset " << c.preset
      << " is not clean on HEAD: " << control.violations.front();
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, MutationSelfTest,
    ::testing::Values(
        MutationCase{ProtocolMutation::skip_capture_dedup, "freeze",
                     "capture.duplicate-seq"},
        MutationCase{ProtocolMutation::skip_restore_rehash, "handshake",
                     "bhash.dangling-flag"},
        MutationCase{ProtocolMutation::double_resume_done, "handshake",
                     "protocol.frame-after-resume"},
        MutationCase{ProtocolMutation::skip_capture_arm, "freeze",
                     "prop.freeze-capture"},
        MutationCase{ProtocolMutation::swap_image_endpoints, "handshake",
                     "prop.post-resume-liveness"}),
    [](const auto& suite_info) {
      return std::string(mutation_name(suite_info.param.mutation));
    });

// The explorer end-to-end: DFS finds a planted bug, minimizes it, and the
// emitted script replays to the same failure.
TEST(ModelChecker, ExplorerMinimizesAndReplaysSeededBug) {
  ExploreConfig cfg;
  cfg.preset = "handshake";
  cfg.mutation = ProtocolMutation::double_resume_done;
  Explorer ex{cfg};
  const ExploreResult r = ex.dfs();
  ASSERT_TRUE(r.has_violation);
  EXPECT_EQ(r.repro.preset, "handshake");
  EXPECT_EQ(r.repro.mutation, "double_resume_done");
  // Visible on the untouched schedule, so the minimizer must reach zero
  // prescribed choices.
  EXPECT_TRUE(r.repro.choices.empty());
  const RunResult replayed = replay_script(r.repro);
  EXPECT_FALSE(replayed.clean());
}

// ----------------------------------------------------------- script plumbing

TEST(ReproScript, RoundTripsThroughText) {
  Script s;
  s.preset = "crash";
  s.tail = "random";
  s.seed = 42;
  s.mutation = "skip_capture_arm";
  s.choices = {0, 0, 3, 1};
  const std::string text = s.to_text();
  std::string error;
  const auto parsed = Script::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->preset, s.preset);
  EXPECT_EQ(parsed->tail, s.tail);
  EXPECT_EQ(parsed->seed, s.seed);
  EXPECT_EQ(parsed->mutation, s.mutation);
  EXPECT_EQ(parsed->choices, s.choices);
}

TEST(ReproScript, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(Script::parse("not a script", &error).has_value());
  EXPECT_FALSE(Script::parse("choices 0 1\n", &error).has_value());  // no preset
  EXPECT_FALSE(
      Script::parse("preset crash\ntail sideways\n", &error).has_value());
}

}  // namespace
}  // namespace dvemig::mc
