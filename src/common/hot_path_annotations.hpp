// Hot-path contract annotations, sibling of thread_annotations.hpp.
//
// These macros attach machine-checkable serving invariants to functions.
// They expand to NOTHING under every compiler — they exist for
// `calloc-lint` (tools/lint/), which reads the raw, un-preprocessed
// source, builds a call graph, and enforces the contracts transitively.
// Because the tool sees source text (not the preprocessed TU), the
// macros are zero-cost by construction: no attribute, no code, no ABI
// or codegen change in any build mode.
//
// Vocabulary (three tiers, from permissive to strict):
//
//   CAL_HOT_PATH
//     Marks a function on the serving data plane. Transitively forbids
//     *unbounded* waits: condition_variable wait/wait_for/wait_until,
//     future::get/wait, thread::join, sleep_for/sleep_until, and
//     blocking I/O (stdio / iostream sinks). Short bounded mutex
//     critical sections are ALLOWED — the PR 6 lock discipline already
//     polices those — as are heap allocations.
//
//   CAL_NONBLOCKING
//     The strict tier: everything CAL_HOT_PATH forbids, plus ANY lock
//     acquisition — std::mutex::lock, MutexLock / ReaderMutexLock /
//     WriterMutexLock, lock_guard / scoped_lock / unique_lock /
//     shared_lock construction. try_to_lock / defer_lock acquisitions
//     are allowed (they cannot block). Reserve this for genuinely
//     lock-free leaves: serve::anchor_distance, Tracer::record, the
//     per-ISA GEMM kernel bodies.
//
//   CAL_NOALLOC
//     Transitively forbids heap allocation: operator new, the malloc
//     family, make_unique/make_shared, growing-container calls
//     (push_back, emplace*, insert, resize, reserve), string /
//     stringstream construction and to_string. Combine with the tiers
//     above; it is orthogonal to blocking.
//
// Placement: put the macro(s) on the line(s) immediately before the
// function's declaration or definition (either works; calloc-lint
// merges by name across TUs). Annotating a function makes it a *root*:
// the whole call tree underneath it must honor the contract.
//
//   CAL_HOT_PATH CAL_NOALLOC
//   const Pos* lookup(const Key& key);
//
// Escape hatch: CAL_LINT_SUPPRESS(rule, "reason") placed on a function
// stops calloc-lint from descending into it for that rule. The rule is
// one of: alloc, block, promise, sites. The reason string is MANDATORY
// and non-empty — an empty reason is itself a lint finding. Every
// suppression is an audited, deliberate exception (e.g. the
// FlightRecorder anomaly dump is synchronous by design); new
// suppressions belong in code review, not in bulk.
//
// Checked by: tools/lint (calloc-lint), built with -DCALLOC_BUILD_LINT=ON
// and run in CI over src/ plus the seeded-violation corpus in
// tests/static/lint_*.cpp. See README "Correctness tooling".
#pragma once

#define CAL_HOT_PATH
#define CAL_NONBLOCKING
#define CAL_NOALLOC
#define CAL_LINT_SUPPRESS(rule, reason)
