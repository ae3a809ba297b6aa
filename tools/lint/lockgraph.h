#ifndef OPDELTA_TOOLS_LINT_LOCKGRAPH_H_
#define OPDELTA_TOOLS_LINT_LOCKGRAPH_H_

#include <vector>

#include "tools/lint/rules.h"

namespace opdelta::lint {

/// Cross-translation-unit lock-hierarchy analysis: rules R7, R8, R9.
///
/// Pass 1 indexes every mutex member declaration (an OrderedMutex /
/// OrderedSharedMutex carrying an OPDELTA_LOCK_RANK, or a bare std::mutex,
/// which is an R9 finding in src/), the lockrank constant table, and
/// member-object types (`catalog::Catalog catalog_;`) for call resolution.
///
/// Pass 2 walks every function body tracking live lock guards
/// (lock_guard / unique_lock / shared_lock / scoped_lock / manual .lock())
/// exactly as the runtime checker would, and records:
///   - inter-lock acquisition edges (lock B taken while lock A is held),
///     including acquisitions reachable through ONE level of intra-project
///     calls while a lock is held (`obj_.Method()` resolved through the
///     member-type index, or a globally unique free function);
///   - R8 findings: a potentially blocking call — Env/file I/O,
///     PersistentQueue traffic, transport Ship, a cv wait while more than
///     one lock is held, or a stored user callback — under a live lock,
///     and a call under a live lock into a method of the same class (a
///     bare or `this->` call) whose body makes a blocking member call,
///     followed one call deep;
///   - R9 findings: mutex members with no declared rank.
///
/// The finished graph is checked for declared-rank inversions (an edge
/// from a higher-ranked lock into a lower-ranked one) and for cycles; each
/// R7 finding carries the witness file:line of every edge on the cycle.
///
/// Scope: src/ only. Tests and tools construct deliberate inversions (the
/// runtime checker's own death tests) and are exercised via fixtures.
/// Same-class (same rank name) nesting is not edged statically — distinct
/// instances of one class may nest legally, and the runtime per-instance
/// cycle detector owns that case.
void RunLockGraph(const std::vector<FileUnit>& units, const SymbolIndex& index,
                  std::vector<Finding>* findings);

}  // namespace opdelta::lint

#endif  // OPDELTA_TOOLS_LINT_LOCKGRAPH_H_
