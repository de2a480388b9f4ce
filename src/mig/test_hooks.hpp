// Test-only protocol mutation hook.
//
// The mutation self-test (tests/test_mc.cpp, ISSUE 3) needs to prove that the
// model checker / verifier actually *detects* protocol bugs, not merely that a
// clean tree passes. Each enumerator below arms one deliberate, historically
// plausible bug on a production code path; with `none` (the default, and the
// only value production code ever sees) every gated branch is dead and the
// binary behaves identically to a tree without this header.
//
// Keep mutations cheap to audit: one `if (mutation() == ...)` at the exact
// line the bug would live on, nothing else.
#pragma once

#include <cstdint>

namespace dvemig::mig {

enum class ProtocolMutation : std::uint8_t {
  none = 0,
  /// capture.cpp: skip the TCP sequence-number dedup — a duplicated client
  /// packet during the freeze is queued (and later reinjected) twice.
  skip_capture_dedup,
  /// socket_image.cpp: restore a UDP socket without re-inserting it into
  /// bhash — the bound flag says hashed, the table disagrees (dangling flag).
  skip_restore_rehash,
  /// dest_session.cpp: the destination sends resume_done twice (a retry with no
  /// dedup guard on the sender).
  double_resume_done,
  /// dest_session.cpp: the destination acks capture_request without actually arming
  /// the filters — packets arriving during the freeze are silently lost.
  skip_capture_arm,
  /// socket_image.cpp: UDP image restore swaps local and remote endpoints
  /// (a transposed serializer-field pair on the read side).
  swap_image_endpoints,
};

inline ProtocolMutation& mutation_ref() {
  static ProtocolMutation m = ProtocolMutation::none;
  return m;
}
inline ProtocolMutation mutation() { return mutation_ref(); }
inline void set_mutation(ProtocolMutation m) { mutation_ref() = m; }

}  // namespace dvemig::mig
