#include "tools/lint/lockgraph.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace opdelta::lint {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

bool PathContains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

bool InScope(const std::string& path) {
  return PathContains(path, "src/") && !PathContains(path, "src/common/sync");
}

/// Files allowed to hold their own lock across I/O: the Env layer itself
/// plus the stderr logger (fprintf under the log mutex is the design).
bool R8Exempt(const std::string& path) {
  return PathContains(path, "src/common/env") ||
         PathContains(path, "src/common/fault_env") ||
         PathContains(path, "src/common/logging");
}

std::string TrimmedLine(const FileUnit& unit, uint32_t line) {
  if (line == 0 || line > unit.lines.size()) return "";
  const std::string& raw = unit.lines[line - 1];
  size_t b = raw.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = raw.find_last_not_of(" \t");
  return raw.substr(b, e - b + 1);
}

size_t SkipBalanced(const std::vector<Token>& toks, size_t i) {
  const std::string& open = toks[i].text;
  const char* close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (; i < toks.size() && toks[i].kind != TokenKind::kEof; ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == open) {
      ++depth;
    } else if (toks[i].text == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return kNpos;
}

size_t SkipAngles(const std::vector<Token>& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size() && toks[i].kind != TokenKind::kEof; ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return i + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      return kNpos;
    }
  }
  return kNpos;
}

bool IsLockClass(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

bool IsOrderedMutexClass(const std::string& s) {
  return s == "OrderedMutex" || s == "OrderedSharedMutex";
}

/// One OPDELTA_LOCK_RANK-annotated mutex declaration.
struct MutexDecl {
  std::string member;  // declared variable name
  std::string node;    // lock-class name (the macro's stringified first arg)
  int rank = -1;       // resolved rank, or -1 when unresolvable
  std::string path;
  uint32_t line = 0;
};

/// First-witness acquisition edge: `to` acquired while `from` was held.
struct EdgeWitness {
  std::string from, to;
  std::string path;
  uint32_t line = 0;
  std::string via;  // non-empty: reached through this callee
};

/// Deferred one-level call expansion: callee resolved after all function
/// bodies have been indexed.
struct CallSite {
  std::vector<std::string> held;     // nodes held at the call
  std::vector<std::string> callees;  // candidate keys, tried in order
  std::string path;
  uint32_t line = 0;
  /// R8's one-level follow: "Class::fn" for a bare or `this->` call made
  /// from a method of Class in an R8-checked file; empty otherwise.
  std::string own_method;
  std::string snippet;
};

std::string Stem(const std::string& path) {
  size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

/// Everything pass 1 accumulates across the tree.
struct TreeIndex {
  std::vector<MutexDecl> decls;
  std::map<std::string, int> rank_consts;            // kCatalog -> 36
  std::map<std::string, std::set<std::string>> member_types;  // obj_ -> Class
  // member name -> indexes into decls, for guard-arg resolution.
  std::map<std::string, std::vector<size_t>> by_member;

  const MutexDecl* Resolve(const std::string& unit_path,
                           const std::string& member) const {
    auto it = by_member.find(member);
    if (it == by_member.end()) return nullptr;
    const std::vector<size_t>& cands = it->second;
    // Same file, then same stem (catalog.cc <-> catalog.h), then a
    // globally unique member name; ambiguous names stay unresolved.
    for (size_t i : cands) {
      if (decls[i].path == unit_path) return &decls[i];
    }
    const std::string stem = Stem(unit_path);
    for (size_t i : cands) {
      if (Stem(decls[i].path) == stem) return &decls[i];
    }
    if (cands.size() == 1) return &decls[cands[0]];
    return nullptr;
  }

  int RankOf(const std::string& node) const {
    for (const MutexDecl& d : decls) {
      if (d.node == node) return d.rank;
    }
    return -1;
  }
};

// --------------------------------------------------------------- pass 1

/// Parses OPDELTA_LOCK_RANK(name, rank-expr) starting at the macro name
/// token. Returns the index past the closing paren, or kNpos.
size_t ParseRankSpec(const std::vector<Token>& toks, size_t i,
                     const std::map<std::string, int>& rank_consts,
                     std::string* node, int* rank) {
  if (!toks[i].IsIdent("OPDELTA_LOCK_RANK") || i + 1 >= toks.size() ||
      !toks[i + 1].IsPunct("(")) {
    return kNpos;
  }
  size_t end = SkipBalanced(toks, i + 1);
  if (end == kNpos) return kNpos;
  size_t j = i + 2;
  if (j >= end || toks[j].kind != TokenKind::kIdent) return kNpos;
  *node = toks[j].text;
  // The rank expression: remember the last identifier (a lockrank
  // constant) or the last bare number inside the argument list.
  *rank = -1;
  for (++j; j + 1 < end; ++j) {
    if (toks[j].kind == TokenKind::kNumber) {
      *rank = std::atoi(toks[j].text.c_str());
    } else if (toks[j].kind == TokenKind::kIdent) {
      auto it = rank_consts.find(toks[j].text);
      if (it != rank_consts.end()) *rank = it->second;
    }
  }
  return end;
}

void CollectRankConstants(const FileUnit& unit, TreeIndex* tree) {
  const auto& toks = unit.tokens;
  for (size_t i = 0; i + 4 < toks.size(); ++i) {
    // [inline] constexpr int kName = NN;
    if (!toks[i].IsIdent("constexpr") || !toks[i + 1].IsIdent("int")) continue;
    if (toks[i + 2].kind != TokenKind::kIdent) continue;
    if (!toks[i + 3].IsPunct("=")) continue;
    if (toks[i + 4].kind != TokenKind::kNumber) continue;
    tree->rank_consts[toks[i + 2].text] =
        std::atoi(toks[i + 4].text.c_str());
  }
}

void CollectDecls(const FileUnit& unit, TreeIndex* tree,
                  std::vector<Finding>* findings) {
  const auto& toks = unit.tokens;
  const bool in_scope = InScope(unit.path);
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdent) continue;

    // OrderedMutex member_{OPDELTA_LOCK_RANK(...)}; — the annotated form.
    if (IsOrderedMutexClass(t.text) && toks[i + 1].kind == TokenKind::kIdent &&
        toks[i + 2].IsPunct("{")) {
      size_t end = SkipBalanced(toks, i + 2);
      if (end == kNpos) continue;
      bool ranked = false;
      for (size_t j = i + 3; j + 1 < end; ++j) {
        std::string node;
        int rank = -1;
        if (ParseRankSpec(toks, j, tree->rank_consts, &node, &rank) != kNpos) {
          MutexDecl d{toks[i + 1].text, node, rank, unit.path,
                      toks[i + 1].line};
          tree->by_member[d.member].push_back(tree->decls.size());
          tree->decls.push_back(std::move(d));
          ranked = true;
          break;
        }
      }
      if (!ranked && in_scope) {
        findings->push_back(Finding{
            RuleId::kR9UnrankedMutex, unit.path, toks[i + 1].line,
            "OrderedMutex '" + toks[i + 1].text +
                "' has no OPDELTA_LOCK_RANK annotation; declare its place "
                "in the hierarchy (src/common/sync.h lockrank table)",
            TrimmedLine(unit, toks[i + 1].line)});
      }
      continue;
    }

    // OrderedMutex member_; — declared but never ranked.
    if (IsOrderedMutexClass(t.text) && in_scope &&
        toks[i + 1].kind == TokenKind::kIdent &&
        (toks[i + 2].IsPunct(";") || toks[i + 2].IsPunct("="))) {
      findings->push_back(Finding{
          RuleId::kR9UnrankedMutex, unit.path, toks[i + 1].line,
          "OrderedMutex '" + toks[i + 1].text +
              "' has no OPDELTA_LOCK_RANK annotation; declare its place in "
              "the hierarchy (src/common/sync.h lockrank table)",
          TrimmedLine(unit, toks[i + 1].line)});
      continue;
    }

    // std::mutex member_; — a mutex outside the ranked-type system.
    if ((t.text == "mutex" || t.text == "shared_mutex") && in_scope &&
        i >= 2 && toks[i - 1].IsPunct("::") && toks[i - 2].IsIdent("std") &&
        toks[i + 1].kind == TokenKind::kIdent &&
        (toks[i + 2].IsPunct(";") || toks[i + 2].IsPunct("{") ||
         toks[i + 2].IsPunct("="))) {
      findings->push_back(Finding{
          RuleId::kR9UnrankedMutex, unit.path, toks[i + 1].line,
          "std::" + t.text + " '" + toks[i + 1].text +
              "' bypasses the lock hierarchy; use common::OrderedMutex "
              "with an OPDELTA_LOCK_RANK (src/common/sync.h)",
          TrimmedLine(unit, toks[i + 1].line)});
      continue;
    }

    // Member-object types for one-level call resolution:
    //   catalog::Catalog catalog_;              -> catalog_ : Catalog
    //   std::unique_ptr<ApplyLedger> ledger_;   -> ledger_  : ApplyLedger
    if ((t.text == "unique_ptr" || t.text == "shared_ptr") &&
        toks[i + 1].IsPunct("<")) {
      size_t close = SkipAngles(toks, i + 1);
      if (close == kNpos || close >= toks.size()) continue;
      std::string type;
      for (size_t j = i + 2; j + 1 < close; ++j) {
        if (toks[j].kind == TokenKind::kIdent &&
            std::isupper(static_cast<unsigned char>(toks[j].text[0]))) {
          type = toks[j].text;
        }
      }
      if (!type.empty() && toks[close].kind == TokenKind::kIdent &&
          close + 1 < toks.size() && toks[close + 1].IsPunct(";")) {
        tree->member_types[toks[close].text].insert(type);
      }
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(t.text[0])) &&
        toks[i + 1].kind == TokenKind::kIdent &&
        toks[i + 2].IsPunct(";") && !toks[i + 1].text.empty() &&
        toks[i + 1].text.back() == '_') {
      tree->member_types[toks[i + 1].text].insert(t.text);
    }
  }
}

// --------------------------------------------------------------- pass 2

/// Methods whose call can block on I/O or on another thread. Only flagged
/// as R8 when invoked through `.` or `->` while a lock is held.
bool IsBlockingMethod(const std::string& s) {
  static const std::set<std::string> kMethods = {
      // common::Env + file handles.
      "NewSequentialFile", "NewWritableFile", "NewRandomRWFile",
      "ReadFileToString", "WriteFileAtomic", "RenameFile", "DeleteFile",
      "CreateDir", "ListDir", "ReadPage", "WritePage", "AllocatePage",
      "Append", "Sync", "Flush",
      // common::RecordLog file I/O (segment create, cut, write, read,
      // unlink).
      "Roll", "Repair", "Write", "ReadFrame", "DeleteBefore",
      // transport::PersistentQueue append/drain (each reads or appends the
      // log under the queue mutex) + shipping.
      "Enqueue", "Peek", "Ack", "PeekLast", "Backlog", "Ship",
      // Joins: blocking on other threads while holding a lock.
      "Wait", "WaitIdle",
  };
  return kMethods.count(s) > 0;
}

bool IsGuardTag(const std::string& s) {
  return s == "try_to_lock" || s == "adopt_lock" || s == "defer_lock" ||
         s == "std";
}

bool IsStatementKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if", "while", "for", "switch", "return", "catch", "sizeof", "new",
      "delete", "throw", "else", "do", "case", "co_await", "co_return",
      "co_yield", "static_cast", "const_cast", "reinterpret_cast",
      "dynamic_cast", "assert",
  };
  return kKeywords.count(s) > 0;
}

struct ActiveLock {
  std::string node;
  std::string var;  // guard variable, or the mutex member for manual .lock()
  int depth;
};

struct FnCtx {
  std::vector<std::string> keys;  // "Class::name" and/or bare "name"
  int depth;                      // brace depth at the opening '{'
  std::vector<ActiveLock> saved;  // outer locks, restored on pop
};

struct ClassCtx {
  std::string name;
  int depth;
};

/// Per-unit walker: tracks live guards per function body and emits edges,
/// call sites, R8 findings, and the per-function acquisition index.
class Walker {
 public:
  Walker(const FileUnit& unit, const TreeIndex& tree, const SymbolIndex& index,
         std::map<std::string, std::set<std::string>>* fn_acquires,
         std::map<std::string, std::set<std::string>>* bare_owners,
         std::map<std::string, std::string>* fn_blocking,
         std::vector<EdgeWitness>* edges, std::vector<CallSite>* calls,
         std::vector<Finding>* findings)
      : unit_(unit),
        tree_(tree),
        index_(index),
        fn_acquires_(fn_acquires),
        bare_owners_(bare_owners),
        fn_blocking_(fn_blocking),
        edges_(edges),
        calls_(calls),
        findings_(findings) {}

  void Run() {
    const auto& toks = unit_.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.IsPunct("{")) {
        OnOpenBrace(i);
        ++depth_;
        continue;
      }
      if (t.IsPunct("}")) {
        --depth_;
        while (!locks_.empty() && locks_.back().depth > depth_) {
          locks_.pop_back();
        }
        // Contexts record the depth their '{' opened at, so they close
        // when the depth falls back TO that value.
        while (!classes_.empty() && classes_.back().depth >= depth_) {
          classes_.pop_back();
        }
        while (!fns_.empty() && fns_.back().depth >= depth_) {
          locks_ = std::move(fns_.back().saved);
          fns_.pop_back();
        }
        continue;
      }
      if (t.IsPunct(";")) pending_class_.clear();  // `class Foo;` fwd decl
      if (t.kind != TokenKind::kIdent) continue;

      if (t.text == "class" || t.text == "struct") {
        if (i + 1 < toks.size() && toks[i + 1].kind == TokenKind::kIdent) {
          pending_class_ = toks[i + 1].text;
        }
        continue;
      }

      // Guard declaration: std::lock_guard<...> var(mu_); etc.
      if (IsLockClass(t.text) && i >= 2 && toks[i - 1].IsPunct("::") &&
          toks[i - 2].IsIdent("std")) {
        i = OnGuardDecl(i) - 1;
        continue;
      }

      // Manual mu_.lock() / guard.unlock() / mu_.unlock().
      if ((t.text == "lock" || t.text == "unlock") && i >= 2 &&
          (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->")) &&
          toks[i - 2].kind == TokenKind::kIdent && i + 1 < toks.size() &&
          toks[i + 1].IsPunct("(")) {
        if (t.text == "lock") {
          OnManualLock(toks[i - 2].text, t.line);
        } else {
          OnUnlock(toks[i - 2].text);
        }
        continue;
      }

      // cv wait while more than one lock is held: the wait releases only
      // the guard it is given; every other held lock blocks strangers for
      // the whole sleep.
      if ((t.text == "wait" || t.text == "wait_for" ||
           t.text == "wait_until") &&
          i >= 1 && (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->")) &&
          i + 1 < toks.size() && toks[i + 1].IsPunct("(")) {
        if (locks_.size() >= 2 && InScope(unit_.path) &&
            !R8Exempt(unit_.path)) {
          Report(RuleId::kR8BlockingUnderLock, t.line,
                 "condition-variable " + t.text + " while also holding '" +
                     locks_[locks_.size() - 2].node +
                     "'; the wait releases only its own mutex, so every "
                     "other held lock stays blocked for the whole sleep");
        }
        continue;
      }

      if (i + 1 < toks.size() && toks[i + 1].IsPunct("(")) NoteBlocking(i);

      // Method or function call while locks are held.
      if (i + 1 < toks.size() && toks[i + 1].IsPunct("(") &&
          !IsStatementKeyword(t.text) && !locks_.empty()) {
        OnCall(i);
        continue;
      }
    }
  }

 private:
  void Report(RuleId rule, uint32_t line, std::string message) {
    findings_->push_back(Finding{rule, unit_.path, line, std::move(message),
                                 TrimmedLine(unit_, line)});
  }

  /// Skips backwards over `const|noexcept|override|final|mutable` between
  /// a parameter list and the body '{'.
  size_t SkipQualifiersBack(size_t j) const {
    const auto& toks = unit_.tokens;
    while (j > 0 && toks[j - 1].kind == TokenKind::kIdent &&
           (toks[j - 1].text == "const" || toks[j - 1].text == "noexcept" ||
            toks[j - 1].text == "override" || toks[j - 1].text == "final" ||
            toks[j - 1].text == "mutable")) {
      --j;
    }
    return j;
  }

  /// Function-header detection for the '{' at token index i. Scans back
  /// over qualifiers and an optional `-> Type` trailing return; the
  /// identifier before the matching '(' names the function, while a `[`
  /// capture list marks a lambda body (an anonymous barrier: the enclosing
  /// function's held locks do not flow into code that may run elsewhere).
  void OnOpenBrace(size_t i) {
    const auto& toks = unit_.tokens;
    if (!pending_class_.empty()) {
      classes_.push_back(ClassCtx{pending_class_, depth_});
      pending_class_.clear();
      return;
    }
    size_t j = SkipQualifiersBack(i);
    // `-> RetType {` trailing return: walk back over the type to the arrow.
    {
      size_t r = j;
      while (r > 0 &&
             (toks[r - 1].kind == TokenKind::kIdent ||
              toks[r - 1].IsPunct("::") || toks[r - 1].IsPunct("<") ||
              toks[r - 1].IsPunct(">") || toks[r - 1].IsPunct("*") ||
              toks[r - 1].IsPunct("&"))) {
        --r;
      }
      if (r < j && r > 0 && toks[r - 1].IsPunct("->")) {
        j = SkipQualifiersBack(r - 1);
      }
    }
    // `[captures] {` — a parameterless lambda.
    if (j > 0 && toks[j - 1].IsPunct("]")) {
      PushLambda();
      return;
    }
    if (j == 0 || !toks[j - 1].IsPunct(")")) return;
    // Find the matching '(' backwards.
    int pdepth = 0;
    size_t k = j - 1;
    while (true) {
      if (toks[k].IsPunct(")")) ++pdepth;
      if (toks[k].IsPunct("(")) {
        if (--pdepth == 0) break;
      }
      if (k == 0) return;
      --k;
    }
    // `[captures](params) {` — a lambda with a parameter list.
    if (k > 0 && toks[k - 1].IsPunct("]")) {
      PushLambda();
      return;
    }
    if (k == 0 || toks[k - 1].kind != TokenKind::kIdent) return;
    const std::string fn = toks[k - 1].text;
    if (IsStatementKeyword(fn) || IsLockClass(fn)) return;
    // `: member_(x) {` or `, member_(x) {` is a constructor init list, not
    // a definition of member_.
    if (k >= 2 && (toks[k - 2].IsPunct(":") || toks[k - 2].IsPunct(","))) {
      return;
    }
    FnCtx ctx;
    ctx.depth = depth_;
    std::string cls;
    if (k >= 3 && toks[k - 2].IsPunct("::") &&
        toks[k - 3].kind == TokenKind::kIdent) {
      cls = toks[k - 3].text;  // out-of-line Class::fn
    } else if (!classes_.empty()) {
      cls = classes_.back().name;  // in-class definition
    }
    if (!cls.empty()) {
      ctx.keys.push_back(cls + "::" + fn);
      (*bare_owners_)[fn].insert(cls + "::" + fn);
    } else {
      ctx.keys.push_back("::" + fn);
      (*bare_owners_)[fn].insert("::" + fn);
    }
    ctx.saved = std::move(locks_);
    locks_.clear();
    fns_.push_back(std::move(ctx));
  }

  /// Resolves the mutex expression ending at the last identifier of one
  /// guard constructor argument; returns the lock-class node or, for an
  /// undeclared member, a per-file fallback so held-tracking still works.
  std::string ResolveNode(const std::string& member) {
    const MutexDecl* d = tree_.Resolve(unit_.path, member);
    if (d != nullptr) return d->node;
    return Stem(unit_.path) + "#" + member;
  }

  /// Enters an anonymous lambda context: held locks are parked (the body
  /// may run on another thread), and acquisitions inside still attribute
  /// to the enclosing function — the dominant pattern is an
  /// immediately-invoked body (WithTransaction, ForEach visitors).
  void PushLambda() {
    FnCtx ctx;
    ctx.depth = depth_;
    if (!fns_.empty()) ctx.keys = fns_.back().keys;
    ctx.saved = std::move(locks_);
    locks_.clear();
    fns_.push_back(std::move(ctx));
  }

  void Acquire(const std::string& node, const std::string& var, uint32_t line,
               bool edged) {
    if (edged) {
      for (const ActiveLock& h : locks_) {
        if (h.node == node) continue;  // runtime owns same-class nesting
        edges_->push_back(EdgeWitness{h.node, node, unit_.path, line, ""});
      }
    }
    // Attribute to the innermost context only: outer functions do not
    // acquire what their nested bodies acquire.
    if (!fns_.empty()) {
      for (const std::string& key : fns_.back().keys) {
        (*fn_acquires_)[key].insert(node);
      }
    }
    locks_.push_back(ActiveLock{node, var, depth_});
  }

  /// Handles `std::lock_guard<...> var(mu_[, tag])`; returns the index
  /// past the declaration.
  size_t OnGuardDecl(size_t i) {
    const auto& toks = unit_.tokens;
    size_t j = i + 1;
    if (j < toks.size() && toks[j].IsPunct("<")) {
      size_t a = SkipAngles(toks, j);
      if (a == kNpos) return i + 1;
      j = a;
    }
    if (j >= toks.size() || toks[j].kind != TokenKind::kIdent) return i + 1;
    const std::string var = toks[j].text;
    if (j + 1 >= toks.size() ||
        !(toks[j + 1].IsPunct("(") || toks[j + 1].IsPunct("{"))) {
      return j + 1;
    }
    size_t end = SkipBalanced(toks, j + 1);
    if (end == kNpos) return j + 1;
    // Split the argument list at top-level commas; each argument's last
    // identifier names a mutex (scoped_lock takes several).
    std::vector<std::string> members;
    bool try_tag = false, defer_tag = false;
    std::string last;
    int adepth = 0;
    for (size_t k = j + 2; k + 1 < end; ++k) {
      if (toks[k].kind == TokenKind::kPunct) {
        const std::string& p = toks[k].text;
        if (p == "(" || p == "[" || p == "{") ++adepth;
        if (p == ")" || p == "]" || p == "}") --adepth;
        if (p == "," && adepth == 0) {
          if (!last.empty()) members.push_back(last);
          last.clear();
        }
        continue;
      }
      if (toks[k].kind != TokenKind::kIdent) continue;
      if (toks[k].text == "try_to_lock") {
        try_tag = true;
        last.clear();
      } else if (toks[k].text == "defer_lock") {
        defer_tag = true;
        last.clear();
      } else if (!IsGuardTag(toks[k].text)) {
        last = toks[k].text;
      }
    }
    if (!last.empty()) members.push_back(last);
    if (defer_tag) return end;  // nothing held until an explicit .lock()
    for (const std::string& m : members) {
      // try_to_lock acquisitions cannot deadlock: held, but no edges.
      Acquire(ResolveNode(m), var, toks[j].line, /*edged=*/!try_tag);
    }
    return end;
  }

  void OnManualLock(const std::string& obj, uint32_t line) {
    // `guard.lock()` re-locks an existing (deferred/unlocked) guard whose
    // mutex we cannot see here; treat a known guard var as a no-op.
    for (const ActiveLock& l : locks_) {
      if (l.var == obj) return;
    }
    Acquire(ResolveNode(obj), obj, line, /*edged=*/true);
  }

  void OnUnlock(const std::string& obj) {
    for (auto it = locks_.rbegin(); it != locks_.rend(); ++it) {
      if (it->var == obj) {
        locks_.erase(std::next(it).base());
        return;
      }
    }
  }

  bool R8Checked() const {
    return InScope(unit_.path) && !R8Exempt(unit_.path);
  }

  /// Indexes the first blocking member call in each function body, held
  /// lock or not, for R8's follow into same-class calls.
  void NoteBlocking(size_t i) {
    const auto& toks = unit_.tokens;
    if (fns_.empty() || !R8Checked() || !IsBlockingMethod(toks[i].text) ||
        i < 2 || !(toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->")) ||
        toks[i - 2].kind != TokenKind::kIdent) {
      return;
    }
    for (const std::string& key : fns_.back().keys) {
      fn_blocking_->emplace(key, toks[i - 2].text + "." + toks[i].text +
                                     "()' (" + unit_.path + ":" +
                                     std::to_string(toks[i].line) + ")");
    }
  }

  /// "Class::fn" for a bare or `this->` call to `fn` from a method of
  /// Class, else empty.
  std::string OwnMethod(size_t i, bool member_call) const {
    const auto& toks = unit_.tokens;
    if (member_call ? !toks[i - 2].IsIdent("this")
                    : (i >= 1 && toks[i - 1].IsPunct("::"))) {
      return "";
    }
    if (fns_.empty() || fns_.back().keys.empty()) return "";
    const std::string& key = fns_.back().keys.front();
    const size_t sep = key.find("::");
    if (sep == std::string::npos || sep == 0) return "";  // free function
    return key.substr(0, sep) + "::" + toks[i].text;
  }

  /// A call with locks held: R8 for blocking methods and stored callbacks;
  /// otherwise a candidate for one-level acquisition expansion.
  void OnCall(size_t i) {
    const auto& toks = unit_.tokens;
    const Token& t = toks[i];
    const bool member_call =
        i >= 2 && (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->")) &&
        toks[i - 2].kind == TokenKind::kIdent;
    const bool checked = R8Checked();

    if (member_call && IsBlockingMethod(t.text) && checked) {
      Report(RuleId::kR8BlockingUnderLock, t.line,
             "potentially blocking '" + toks[i - 2].text + "." + t.text +
                 "()' while holding lock '" + locks_.back().node +
                 "'; move the call outside the critical section or document "
                 "the serialization with NOLINT(opdelta-R8: reason)");
      return;
    }

    // Stored std::function member invoked under a lock: user code re-enters
    // while we hold the mutex (deadlock or use-after-free on reentry).
    if (!member_call && index_.function_objects.count(t.text) > 0 && checked &&
        (i == 0 || toks[i - 1].kind == TokenKind::kPunct ||
         toks[i - 1].IsIdent("return")) &&
        !(i >= 1 && (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->") ||
                     toks[i - 1].IsPunct("::")))) {
      Report(RuleId::kR8BlockingUnderLock, t.line,
             "callback '" + t.text + "' invoked while holding lock '" +
                 locks_.back().node + "'; run user code outside the lock");
      return;
    }

    // One-level call expansion: record the candidate callee keys and the
    // held set; edges materialize once every function body is indexed.
    if (member_call && toks[i - 2].text != "std") {
      CallSite site;
      if (checked) {
        site.own_method = OwnMethod(i, member_call);
        site.snippet = TrimmedLine(unit_, t.line);
      }
      const auto mt = tree_.member_types.find(toks[i - 2].text);
      if (mt != tree_.member_types.end() && mt->second.size() == 1) {
        site.callees.push_back(*mt->second.begin() + "::" + t.text);
      }
      site.callees.push_back(t.text);  // bare-name fallback
      for (const ActiveLock& l : locks_) site.held.push_back(l.node);
      site.path = unit_.path;
      site.line = t.line;
      calls_->push_back(std::move(site));
    } else if (!member_call &&
               !(i >= 1 && toks[i - 1].IsPunct("::"))) {
      CallSite site;
      if (checked) {
        site.own_method = OwnMethod(i, member_call);
        site.snippet = TrimmedLine(unit_, t.line);
      }
      site.callees.push_back(t.text);
      for (const ActiveLock& l : locks_) site.held.push_back(l.node);
      site.path = unit_.path;
      site.line = t.line;
      calls_->push_back(std::move(site));
    }
  }

  const FileUnit& unit_;
  const TreeIndex& tree_;
  const SymbolIndex& index_;
  std::map<std::string, std::set<std::string>>* fn_acquires_;
  std::map<std::string, std::set<std::string>>* bare_owners_;
  std::map<std::string, std::string>* fn_blocking_;
  std::vector<EdgeWitness>* edges_;
  std::vector<CallSite>* calls_;
  std::vector<Finding>* findings_;

  int depth_ = 0;
  std::string pending_class_;
  std::vector<ClassCtx> classes_;
  std::vector<FnCtx> fns_;
  std::vector<ActiveLock> locks_;
};

// ------------------------------------------------------- graph analysis

struct Graph {
  // from -> to -> first witness.
  std::map<std::string, std::map<std::string, EdgeWitness>> adj;

  void Add(const EdgeWitness& e) {
    if (e.from == e.to) return;
    adj[e.from].emplace(e.to, e);
  }

  /// BFS path from -> to; returns the edge chain, empty when unreachable.
  std::vector<const EdgeWitness*> FindPath(const std::string& from,
                                           const std::string& to) const {
    std::map<std::string, const EdgeWitness*> parent;
    std::deque<std::string> queue{from};
    parent[from] = nullptr;
    while (!queue.empty()) {
      const std::string node = queue.front();
      queue.pop_front();
      auto it = adj.find(node);
      if (it == adj.end()) continue;
      for (const auto& [next, edge] : it->second) {
        if (parent.count(next) > 0) continue;
        parent[next] = &edge;
        if (next == to) {
          std::vector<const EdgeWitness*> path;
          for (const EdgeWitness* e = parent[to]; e != nullptr;
               e = parent[e->from]) {
            path.push_back(e);
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        queue.push_back(next);
      }
    }
    return {};
  }
};

std::string DescribeEdge(const EdgeWitness& e) {
  std::string out = e.from + " -> " + e.to + " (" + e.path + ":" +
                    std::to_string(e.line);
  if (!e.via.empty()) out += " via " + e.via;
  out += ")";
  return out;
}

void AnalyzeGraph(const TreeIndex& tree, const std::vector<EdgeWitness>& edges,
                  std::vector<Finding>* findings) {
  Graph graph;
  for (const EdgeWitness& e : edges) graph.Add(e);

  // Declared-rank inversions: an edge that acquires downward.
  for (const auto& [from, outs] : graph.adj) {
    const int from_rank = tree.RankOf(from);
    if (from_rank < 0) continue;
    for (const auto& [to, e] : outs) {
      const int to_rank = tree.RankOf(to);
      if (to_rank < 0 || to_rank >= from_rank) continue;
      findings->push_back(Finding{
          RuleId::kR7LockOrder, e.path, e.line,
          "rank inversion: '" + to + "' (rank " + std::to_string(to_rank) +
              ") acquired while holding '" + from + "' (rank " +
              std::to_string(from_rank) +
              "); the declared hierarchy requires the opposite order",
          ""});
    }
  }

  // Cycles: for every edge a->b, a path b->..->a closes a cycle. Each
  // cycle is reported once, keyed by its sorted node set, with the
  // witness file:line of every edge on it.
  std::set<std::string> reported;
  for (const auto& [from, outs] : graph.adj) {
    for (const auto& [to, e] : outs) {
      std::vector<const EdgeWitness*> back = graph.FindPath(to, from);
      if (back.empty()) continue;
      std::vector<std::string> nodes{from};
      for (const EdgeWitness* b : back) nodes.push_back(b->from);
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      std::string key;
      for (const std::string& n : nodes) key += n + "|";
      if (!reported.insert(key).second) continue;
      std::string msg = "lock-order cycle: " + DescribeEdge(e);
      for (const EdgeWitness* b : back) msg += ", " + DescribeEdge(*b);
      findings->push_back(
          Finding{RuleId::kR7LockOrder, e.path, e.line, std::move(msg), ""});
    }
  }
}

}  // namespace

void RunLockGraph(const std::vector<FileUnit>& units, const SymbolIndex& index,
                  std::vector<Finding>* findings) {
  TreeIndex tree;
  for (const FileUnit& unit : units) CollectRankConstants(unit, &tree);
  for (const FileUnit& unit : units) {
    if (!PathContains(unit.path, "src/")) continue;
    CollectDecls(unit, &tree, findings);
  }

  std::map<std::string, std::set<std::string>> fn_acquires;
  std::map<std::string, std::set<std::string>> bare_owners;
  std::map<std::string, std::string> fn_blocking;
  std::vector<EdgeWitness> edges;
  std::vector<CallSite> calls;
  for (const FileUnit& unit : units) {
    if (!PathContains(unit.path, "src/")) continue;
    Walker(unit, tree, index, &fn_acquires, &bare_owners, &fn_blocking,
           &edges, &calls, findings)
        .Run();
  }

  // R8 one call deep: a lock held across a call into a method of the same
  // class is held across that method's blocking calls.
  for (const CallSite& site : calls) {
    if (site.own_method.empty()) continue;
    auto it = fn_blocking.find(site.own_method);
    if (it == fn_blocking.end()) continue;
    findings->push_back(Finding{
        RuleId::kR8BlockingUnderLock, site.path, site.line,
        "call to '" + site.own_method + "()' while holding lock '" +
            site.held.back() + "' reaches potentially blocking '" +
            it->second +
            "; move the call outside the critical section or document the "
            "serialization with NOLINT(opdelta-R8: reason)",
        site.snippet});
  }

  // One-level call expansion: a lock held across a call reaches every lock
  // that callee acquires. Bare names resolve only when unambiguous.
  for (const CallSite& site : calls) {
    const std::set<std::string>* acquired = nullptr;
    std::string resolved;
    for (const std::string& key : site.callees) {
      auto it = fn_acquires.find(key);
      if (it != fn_acquires.end()) {
        acquired = &it->second;
        resolved = key;
        break;
      }
      auto owners = bare_owners.find(key);
      if (owners != bare_owners.end() && owners->second.size() == 1) {
        auto unique_it = fn_acquires.find(*owners->second.begin());
        if (unique_it != fn_acquires.end()) {
          acquired = &unique_it->second;
          resolved = *owners->second.begin();
          break;
        }
      }
    }
    if (acquired == nullptr) continue;
    for (const std::string& held : site.held) {
      for (const std::string& node : *acquired) {
        if (node == held) continue;
        edges.push_back(
            EdgeWitness{held, node, site.path, site.line, resolved});
      }
    }
  }

  AnalyzeGraph(tree, edges, findings);
}

}  // namespace opdelta::lint
