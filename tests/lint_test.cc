#include "tools/lint/linter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"
#include "tools/lint/rules.h"

namespace opdelta::lint {
namespace {

LintReport LintOne(const std::string& path, const std::string& code,
                   const std::string& baseline = "") {
  LintOptions options;
  options.baseline = baseline;
  return RunLint({{path, code}}, options);
}

std::vector<RuleId> RuleIds(const std::vector<Finding>& findings) {
  std::vector<RuleId> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

/// Every rule's positive fixture must also be baselineable: feed the
/// findings back as a baseline and the rerun reports clean.
void ExpectBaselineable(const std::string& path, const std::string& code) {
  LintReport first = LintOne(path, code);
  ASSERT_FALSE(first.findings.empty()) << "fixture is not a positive case";
  const std::string baseline = FormatBaseline(first.findings);
  LintReport second = LintOne(path, code, baseline);
  EXPECT_TRUE(second.clean());
  EXPECT_EQ(second.baselined.size(), first.findings.size());
  EXPECT_TRUE(second.stale_baseline_entries.empty());
}

// ------------------------------------------------------------------ lexer

TEST(LintLexerTest, TokensCommentsAndIncludes) {
  FileUnit unit = Lex("src/x.cc", R"(#include <vector>
#include "common/env.h"
// a line comment
int main() { return 42; }  /* trailing */
)");
  ASSERT_EQ(unit.includes.size(), 2u);
  EXPECT_EQ(unit.includes[0].header, "vector");
  EXPECT_TRUE(unit.includes[0].angled);
  EXPECT_EQ(unit.includes[1].header, "common/env.h");
  EXPECT_FALSE(unit.includes[1].angled);

  ASSERT_EQ(unit.comments.size(), 2u);
  EXPECT_EQ(unit.comments[0].line, 3u);
  EXPECT_NE(unit.comments[0].text.find("a line comment"), std::string::npos);

  ASSERT_GE(unit.tokens.size(), 9u);
  EXPECT_TRUE(unit.tokens[0].IsIdent("int"));
  EXPECT_TRUE(unit.tokens[1].IsIdent("main"));
  EXPECT_EQ(unit.tokens[0].line, 4u);
}

TEST(LintLexerTest, RawStringsAndContinuationsDoNotLeakTokens) {
  FileUnit unit = Lex("src/x.cc", R"__(const char* s = R"(new delete ::open)";
#define M(a) \
  do_thing(a)
)__");
  for (const Token& t : unit.tokens) {
    EXPECT_FALSE(t.IsIdent("new"));
    EXPECT_FALSE(t.IsIdent("delete"));
    EXPECT_FALSE(t.IsIdent("open"));
    EXPECT_FALSE(t.IsIdent("do_thing"));  // preprocessor body is skipped
  }
}

// --------------------------------------------------------------------- R1

constexpr char kR1Positive[] = R"(
Status DoThing();
void Caller() {
  DoThing();
}
)";

TEST(LintR1Test, FlagsDiscardedStatusCall) {
  LintReport report = LintOne("src/a.cc", kR1Positive);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR1DiscardedStatus);
  EXPECT_NE(report.findings[0].message.find("DoThing"), std::string::npos);
  EXPECT_EQ(report.findings[0].line, 4u);
}

TEST(LintR1Test, FlagsDiscardedMemberChainCall) {
  LintReport report = LintOne("src/a.cc", R"(
struct Db { Status Commit(); };
void Caller(Db* db) {
  db->Commit();
}
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.findings[0].message.find("Commit"), std::string::npos);
}

TEST(LintR1Test, NegativeWhenHandledOrExplicitlyDiscarded) {
  LintReport report = LintOne("src/a.cc", R"(
Status DoThing();
Status Caller() {
  Status st = DoThing();
  if (!st.ok()) return st;
  (void)DoThing();
  return DoThing();
}
)");
  EXPECT_TRUE(report.clean()) << FormatFinding(report.findings[0]);
}

TEST(LintR1Test, TernaryElseArmIsNotAStatementStart) {
  LintReport report = LintOne("src/a.cc", R"(
Status DoThing();
Status Other();
void Caller(bool flag) {
  Status st = flag ? Other()
                   : DoThing();
  (void)st;
}
)");
  EXPECT_TRUE(report.clean());

  // Case labels keep their statement-start status.
  LintReport labeled = LintOne("src/a.cc", R"(
Status DoThing();
void Caller(int k) {
  switch (k) {
    case 1:
      DoThing();
      break;
  }
}
)");
  ASSERT_EQ(labeled.findings.size(), 1u);
  EXPECT_EQ(labeled.findings[0].rule, RuleId::kR1DiscardedStatus);
}

TEST(LintR1Test, AmbiguousNameIsNotFlagged) {
  // Init returns Status in one class and void in another: a name-based
  // matcher cannot tell the call sites apart, so it stays silent and
  // leaves those to the [[nodiscard]] compile error.
  LintReport report = LintOne("src/a.cc", R"(
struct Parser { Status Init(); };
struct Page { void Init(); };
void Caller(Page* p) {
  p->Init();
}
)");
  EXPECT_TRUE(report.clean());
}

TEST(LintR1Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/a.cc", R"(
Status DoThing();
void Caller() {
  DoThing();  // NOLINT(opdelta-R1: result intentionally unused in fixture)
}
)");
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.suppressed[0].rule, RuleId::kR1DiscardedStatus);
  ExpectBaselineable("src/a.cc", kR1Positive);
}

// --------------------------------------------------------------------- R2

// The violation this rule exists for: file_manager.cc's page file once
// opened its fd with a raw ::open, invisible to FaultInjectionEnv.
constexpr char kR2Positive[] = R"(
Status Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return Status::IOError(path);
  return Status::OK();
}
)";

TEST(LintR2Test, FlagsRawSyscallOutsideEnv) {
  LintReport report = LintOne("src/storage/file_manager.cc", kR2Positive);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR2RawFilesystem);
  EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(LintR2Test, FlagsStdioAndStreams) {
  LintReport report = LintOne("src/a.cc", R"(
void Save() {
  FILE* f = fopen("x", "w");
  std::ofstream out("y");
}
)");
  EXPECT_EQ(RuleIds(report.findings),
            (std::vector<RuleId>{RuleId::kR2RawFilesystem,
                                 RuleId::kR2RawFilesystem}));
}

TEST(LintR2Test, NegativeInsideEnvLayerAndForMethods) {
  EXPECT_TRUE(LintOne("src/common/env_posix.cc", kR2Positive).clean());
  // Member functions that happen to share a syscall name are not syscalls.
  EXPECT_TRUE(LintOne("src/a.cc", R"(
void Use(File* f) {
  f->close();
  queue.remove(3);
}
)")
                  .clean());
}

TEST(LintR2Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/storage/file_manager.cc", R"(
Status Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR);  // NOLINT(opdelta-R2: fixture)
  return Status::OK();
}
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
  ExpectBaselineable("src/storage/file_manager.cc", kR2Positive);
}

// --------------------------------------------------------------------- R3

constexpr char kR3BareWait[] = R"(
void WaitReady(std::condition_variable& cv,
               std::unique_lock<std::mutex>& lk) {
  cv.wait(lk);
}
)";

TEST(LintR3Test, FlagsBareCvWaitAndTimedVariants) {
  LintReport report = LintOne("src/a.cc", kR3BareWait);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR3LockDiscipline);

  report = LintOne("src/a.cc", R"(
void WaitReady(std::condition_variable& cv,
               std::unique_lock<std::mutex>& lk, Deadline d) {
  cv.wait_until(lk, d);
}
)");
  ASSERT_EQ(report.findings.size(), 1u);
}

TEST(LintR3Test, NegativeWithPredicate) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
void WaitReady(std::condition_variable& cv,
               std::unique_lock<std::mutex>& lk, Deadline d) {
  cv.wait(lk, [&] { return ready; });
  cv.wait_until(lk, d, [&] { return ready; });
}
)")
                  .clean());
}

constexpr char kR3Callback[] = R"(
class Notifier {
 public:
  void Fire() {
    std::lock_guard<common::OrderedMutex> g(m_);
    cb_();
  }
 private:
  common::OrderedMutex m_{OPDELTA_LOCK_RANK(notifier_m, 10)};
  std::function<void()> cb_;
};
)";

TEST(LintR3Test, FlagsCallbackInvokedUnderLock) {
  // The lock-graph layer (R8) also flags user callbacks under a lock, so a
  // callback invocation yields both findings; R3 carries the guard name.
  LintReport report = LintOne("src/a.cc", kR3Callback);
  const std::vector<RuleId> ids = RuleIds(report.findings);
  ASSERT_NE(std::find(ids.begin(), ids.end(), RuleId::kR3LockDiscipline),
            ids.end());
  for (const Finding& f : report.findings) {
    if (f.rule != RuleId::kR3LockDiscipline) continue;
    EXPECT_NE(f.message.find("cb_"), std::string::npos);
    EXPECT_NE(f.message.find("'g'"), std::string::npos);
  }
}

TEST(LintR3Test, NegativeWhenLockReleasedFirst) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
class Notifier {
 public:
  void Fire() {
    {
      std::lock_guard<common::OrderedMutex> g(m_);
      armed_ = false;
    }
    cb_();
  }
  void FireUnlocked() {
    std::unique_lock<common::OrderedMutex> lk(m_);
    lk.unlock();
    cb_();
  }
 private:
  common::OrderedMutex m_{OPDELTA_LOCK_RANK(notifier_m, 10)};
  bool armed_ = true;
  std::function<void()> cb_;
};
)")
                  .clean());
}

TEST(LintR3Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/a.cc", R"(
class Notifier {
 public:
  void Fire() {
    std::lock_guard<common::OrderedMutex> g(m_);
    cb_();  // NOLINT(opdelta-R3, opdelta-R8: documented contract in fixture)
  }
 private:
  common::OrderedMutex m_{OPDELTA_LOCK_RANK(notifier_m, 10)};
  std::function<void()> cb_;
};
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 2u);
  ExpectBaselineable("src/a.cc", kR3BareWait);
}

// --------------------------------------------------------------------- R4

constexpr char kR4Positive[] = R"(
void Leaky() {
  int* p = new int;
  delete p;
}
)";

TEST(LintR4Test, FlagsNakedNewAndDelete) {
  LintReport report = LintOne("src/a.cc", kR4Positive);
  EXPECT_EQ(RuleIds(report.findings),
            (std::vector<RuleId>{RuleId::kR4OwnershipNodiscard,
                                 RuleId::kR4OwnershipNodiscard}));
}

TEST(LintR4Test, NegativeForSmartPointerOwnershipIdioms) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
void Fine() {
  auto a = std::make_unique<int>(1);
  std::unique_ptr<Widget> b(new Widget());
  std::unique_ptr<Widget> c = std::unique_ptr<Widget>(new Widget());
  b.reset(new Widget());
  static Registry* r = new Registry();
}
void operator delete(void* p) noexcept;
)")
                  .clean());
}

TEST(LintR4Test, FlagsStatusClassWithoutNodiscard) {
  LintReport report = LintOne("src/common/status.h", R"(
class Status {
 public:
  bool ok() const;
};
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.findings[0].message.find("nodiscard"), std::string::npos);

  EXPECT_TRUE(LintOne("src/common/status.h", R"(
class [[nodiscard]] Status {
 public:
  bool ok() const;
};
)")
                  .clean());
}

TEST(LintR4Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/a.cc", R"(
void ArenaFree(Node* n) {
  delete n;  // NOLINT(opdelta-R4: arena reclamation fixture)
}
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
  ExpectBaselineable("src/a.cc", kR4Positive);
}

// --------------------------------------------------------------------- R5

constexpr char kR5Positive[] = R"(#include <cstdio>
#include <fstream>
)";

TEST(LintR5Test, FlagsForbiddenIncludesOutsideEnv) {
  LintReport report = LintOne("src/engine/database.cc", kR5Positive);
  EXPECT_EQ(RuleIds(report.findings),
            (std::vector<RuleId>{RuleId::kR5Hygiene, RuleId::kR5Hygiene}));
  EXPECT_TRUE(LintOne("src/common/env_posix.cc", kR5Positive).clean());
}

TEST(LintR5Test, TodoMarkersNeedIssueTags) {
  LintReport report = LintOne("src/a.cc", R"(
// TODO: make this incremental
int x;
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR5Hygiene);

  EXPECT_TRUE(LintOne("src/a.cc", R"(
// TODO(#42): make this incremental
// Prose mentioning the TODO hygiene rule is not a marker.
int x;
)")
                  .clean());
}

TEST(LintR5Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/a.cc",
                              "#include <cstdio>  // NOLINT(opdelta-R5: x)\n");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
  ExpectBaselineable("src/engine/database.cc", kR5Positive);
}

// --------------------------------------------------------------------- R6

constexpr char kR6ParseInLoop[] = R"(
Status Apply(const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    Result<sql::Statement> stmt = sql::Parser::Parse(op.sql);
    OPDELTA_RETURN_IF_ERROR(stmt.status());
  }
  return Status::OK();
}
)";

TEST(LintR6Test, FlagsParserParseInsideLoop) {
  LintReport report = LintOne("src/warehouse/apply.cc", kR6ParseInLoop);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR6SchemaMapHygiene);
  EXPECT_NE(report.findings[0].message.find("StatementCache"),
            std::string::npos);
  EXPECT_EQ(report.findings[0].line, 4u);
}

TEST(LintR6Test, NegativeForGuardedFallbackOutsideLoopAndSqlLayer) {
  // The cache-or-parse ternary is the sanctioned no-cache fallback.
  LintReport guarded = LintOne("src/warehouse/apply.cc", R"(
Status Apply(const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    Result<sql::Statement> stmt =
        cache_ != nullptr ? cache_->Parse(op.sql, epoch)
                          : sql::Parser::Parse(op.sql);
    OPDELTA_RETURN_IF_ERROR(stmt.status());
  }
  return Status::OK();
}
)");
  EXPECT_TRUE(guarded.clean());

  // One-shot parses outside any loop stay legal.
  LintReport oneshot = LintOne("src/warehouse/apply.cc", R"(
Status One(const std::string& sql) {
  Result<sql::Statement> stmt = sql::Parser::Parse(sql);
  return stmt.status();
}
)");
  EXPECT_TRUE(oneshot.clean());

  // The parser and cache own the raw calls.
  LintReport sql_layer = LintOne("src/sql/statement_cache.cc",
                                 kR6ParseInLoop);
  EXPECT_TRUE(sql_layer.clean());
}

TEST(LintR6Test, FlagsAdHocSchemaMapAtDecodeSite) {
  LintReport report = LintOne("src/warehouse/decode.cc", R"(
Status Decode(engine::Database* db, const std::string& body) {
  catalog::SchemaMap schemas;
  std::vector<extract::OpDeltaTxn> txns;
  return extract::ParseOpDeltaLog(body, schemas, &txns);
}
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR6SchemaMapHygiene);
  EXPECT_NE(report.findings[0].message.find("SchemaMapAt"),
            std::string::npos);
}

TEST(LintR6Test, SuppressedAndBaselined) {
  LintReport report = LintOne(
      "src/warehouse/apply.cc",
      "void F(const std::vector<Op>& ops) {\n"
      "  for (const Op& op : ops) {\n"
      "    auto s = sql::Parser::Parse(op.sql);  // NOLINT(opdelta-R6: x)\n"
      "    (void)s;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
  ExpectBaselineable("src/warehouse/apply.cc", kR6ParseInLoop);
}

// --------------------------------------------------------------------- R7

constexpr char kR7RankInversion[] = R"(
class A {
 public:
  void HighThenLow() {
    std::lock_guard<common::OrderedMutex> g1(high_);
    std::lock_guard<common::OrderedMutex> g2(low_);
  }
 private:
  common::OrderedMutex low_{OPDELTA_LOCK_RANK(fix_low, 10)};
  common::OrderedMutex high_{OPDELTA_LOCK_RANK(fix_high, 20)};
};
)";

TEST(LintR7Test, FlagsDeclaredRankInversion) {
  LintReport report = LintOne("src/a.cc", kR7RankInversion);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR7LockOrder);
  EXPECT_NE(report.findings[0].message.find("rank inversion"),
            std::string::npos);
  EXPECT_NE(report.findings[0].message.find("fix_low"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("fix_high"), std::string::npos);
  EXPECT_EQ(report.findings[0].line, 6u);
}

TEST(LintR7Test, NegativeWhenAcquiredInRankOrder) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
class A {
 public:
  void LowThenHigh() {
    std::lock_guard<common::OrderedMutex> g1(low_);
    std::lock_guard<common::OrderedMutex> g2(high_);
  }
 private:
  common::OrderedMutex low_{OPDELTA_LOCK_RANK(fix_low, 10)};
  common::OrderedMutex high_{OPDELTA_LOCK_RANK(fix_high, 20)};
};
)")
                  .clean());
}

TEST(LintR7Test, FlagsSameRankCycleWithWitnessPath) {
  // Equal ranks are legal per acquisition (same-class instances), so only
  // the cycle check can catch an ABBA order between two lock classes that
  // share a rank. The message must carry each edge's file:line witness.
  LintReport report = LintOne("src/a.cc", R"(
class A {
 public:
  void Ab() {
    std::lock_guard<common::OrderedMutex> g1(a_);
    std::lock_guard<common::OrderedMutex> g2(b_);
  }
  void Ba() {
    std::lock_guard<common::OrderedMutex> g1(b_);
    std::lock_guard<common::OrderedMutex> g2(a_);
  }
 private:
  common::OrderedMutex a_{OPDELTA_LOCK_RANK(fix_a, 10)};
  common::OrderedMutex b_{OPDELTA_LOCK_RANK(fix_b, 10)};
};
)");
  ASSERT_EQ(report.findings.size(), 1u);
  const std::string& msg = report.findings[0].message;
  EXPECT_EQ(report.findings[0].rule, RuleId::kR7LockOrder);
  EXPECT_NE(msg.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(msg.find("fix_a -> fix_b (src/a.cc:"), std::string::npos);
  EXPECT_NE(msg.find("fix_b -> fix_a (src/a.cc:"), std::string::npos);
}

TEST(LintR7Test, SeesAcquisitionsThroughOneCallLevelAcrossFiles) {
  // caller.cc holds caller_mu (rank 20) across a call into Callee, whose
  // method acquires callee_mu (rank 10) — an inversion no single-file scan
  // can see. The callee lives in a different translation unit.
  const std::string callee = R"(
class Callee {
 public:
  void Locked() {
    std::lock_guard<common::OrderedMutex> g(mu_);
  }
 private:
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(callee_mu, 10)};
};
)";
  const std::string caller = R"(
class Caller {
 public:
  void Go() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    callee_.Locked();
  }
 private:
  Callee callee_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(caller_mu, 20)};
};
)";
  LintReport report =
      RunLint({{"src/callee.h", callee}, {"src/caller.cc", caller}}, {});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR7LockOrder);
  EXPECT_NE(report.findings[0].message.find("callee_mu"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("caller_mu"), std::string::npos);
}

TEST(LintR7Test, LambdaBodiesDoNotInheritHeldLocks) {
  // A deferred lambda (thread body, stored callback) runs on its own
  // stack: locks held where it is *defined* are not held where it runs.
  EXPECT_TRUE(LintOne("src/a.cc", R"(
class A {
 public:
  void Start() {
    std::lock_guard<common::OrderedMutex> g(high_);
    worker_ = std::thread([this] {
      std::lock_guard<common::OrderedMutex> g2(low_);
    });
  }
 private:
  common::OrderedMutex low_{OPDELTA_LOCK_RANK(fix_low, 10)};
  common::OrderedMutex high_{OPDELTA_LOCK_RANK(fix_high, 20)};
  std::thread worker_;
};
)")
                  .clean());
}

TEST(LintR7Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/a.cc", R"(
class A {
 public:
  void HighThenLow() {
    std::lock_guard<common::OrderedMutex> g1(high_);
    std::lock_guard<common::OrderedMutex> g2(low_);  // NOLINT(opdelta-R7: deliberate inversion fixture)
  }
 private:
  common::OrderedMutex low_{OPDELTA_LOCK_RANK(fix_low, 10)};
  common::OrderedMutex high_{OPDELTA_LOCK_RANK(fix_high, 20)};
};
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
  ExpectBaselineable("src/a.cc", kR7RankInversion);
}

// --------------------------------------------------------------------- R8

constexpr char kR8BlockingIo[] = R"(
class Store {
 public:
  Status Save() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    return file_->Sync();
  }
 private:
  WritableFile* file_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(store_mu, 10)};
};
)";

TEST(LintR8Test, FlagsBlockingIoUnderLock) {
  LintReport report = LintOne("src/a.cc", kR8BlockingIo);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR8BlockingUnderLock);
  EXPECT_NE(report.findings[0].message.find("potentially blocking"),
            std::string::npos);
  EXPECT_NE(report.findings[0].message.find("store_mu"), std::string::npos);
}

TEST(LintR8Test, FlagsQueueLogReadUnderLock) {
  // PeekLast reads the queue's log under the queue mutex; calling it with
  // another lock held stacks a file read inside that critical section.
  LintReport report = LintOne("src/a.cc", R"(
class Leg {
 public:
  Status Restore() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    return queue_.PeekLast(&newest_);
  }
 private:
  transport::PersistentQueue queue_;
  std::string newest_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(leg_mu, 10)};
};
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR8BlockingUnderLock);
  EXPECT_NE(report.findings[0].message.find("PeekLast"), std::string::npos)
      << report.findings[0].message;
}

// common::RecordLog's segment I/O, as the WAL and the queues call it.
constexpr char kR8RecordLogIo[] = R"(
class Queue {
 public:
  Status Ack() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    OPDELTA_RETURN_IF_ERROR(log_.Repair());
    OPDELTA_RETURN_IF_ERROR(log_.Write(Slice(), false));
    OPDELTA_RETURN_IF_ERROR(log_.ReadFrame(at_, size_, &out_));
    OPDELTA_RETURN_IF_ERROR(log_.Roll(false));
    return log_.DeleteBefore(at_.segment);
  }
 private:
  common::RecordLog log_;
  common::RecordPosition at_;
  size_t size_ = 0;
  std::string out_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(queue_mu, 10)};
};
)";

TEST(LintR8Test, FlagsRecordLogIoUnderLock) {
  LintReport report = LintOne("src/a.cc", kR8RecordLogIo);
  std::vector<std::string> flagged;
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.rule, RuleId::kR8BlockingUnderLock) << f.message;
    for (const char* method :
         {"Repair", "Write", "ReadFrame", "Roll", "DeleteBefore"}) {
      if (f.message.find(std::string("log_.") + method + "()") !=
          std::string::npos) {
        flagged.push_back(method);
      }
    }
  }
  EXPECT_EQ(flagged, (std::vector<std::string>{"Repair", "Write", "ReadFrame",
                                               "Roll", "DeleteBefore"}));
}

TEST(LintR8Test, RecordLogIoUnderLockIsSilentWithNolint) {
  LintReport report = LintOne("src/a.cc", R"(
class Queue {
 public:
  Status Ack() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    return log_.Write(Slice(), false);  // NOLINT(opdelta-R8: acks follow their message in log order)
  }
 private:
  common::RecordLog log_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(queue_mu, 10)};
};
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
}

TEST(LintR8Test, NegativeWhenIoIsOutsideTheCriticalSection) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
class Store {
 public:
  Status Save() {
    {
      std::lock_guard<common::OrderedMutex> g(mu_);
      dirty_ = false;
    }
    return file_->Sync();
  }
 private:
  WritableFile* file_;
  bool dirty_ = false;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(store_mu, 10)};
};
)")
                  .clean());
}

TEST(LintR8Test, FlagsCvWaitWhileHoldingASecondLock) {
  LintReport report = LintOne("src/a.cc", R"(
class Waiter {
 public:
  void Block() {
    std::lock_guard<common::OrderedMutex> g(a_);
    std::unique_lock<common::OrderedMutex> lk(b_);
    cv_.wait(lk, [this] { return ready_; });
  }
 private:
  common::OrderedMutex a_{OPDELTA_LOCK_RANK(wait_a, 10)};
  common::OrderedMutex b_{OPDELTA_LOCK_RANK(wait_b, 20)};
  std::condition_variable_any cv_;
  bool ready_ = false;
};
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR8BlockingUnderLock);
  EXPECT_NE(report.findings[0].message.find("wait_a"), std::string::npos);
}

TEST(LintR8Test, NegativeForCvWaitHoldingOnlyItsOwnMutex) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
class Waiter {
 public:
  void Block() {
    std::unique_lock<common::OrderedMutex> lk(b_);
    cv_.wait(lk, [this] { return ready_; });
  }
 private:
  common::OrderedMutex b_{OPDELTA_LOCK_RANK(wait_b, 20)};
  std::condition_variable_any cv_;
  bool ready_ = false;
};
)")
                  .clean());
}

TEST(LintR8Test, FlagsStoredCallbackInvokedUnderLock) {
  LintReport report = LintOne("src/a.cc", R"(
class Hub {
 public:
  void Fire() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    cb_();
  }
 private:
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(hub_mu, 10)};
  std::function<void()> cb_;
};
)");
  const std::vector<RuleId> ids = RuleIds(report.findings);
  EXPECT_NE(std::find(ids.begin(), ids.end(), RuleId::kR8BlockingUnderLock),
            ids.end());
}

// A locked call into a same-class helper that makes a blocking call.
constexpr char kR8HelperIo[] = R"(
class Log {
 public:
  Status Append() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    return MaybeRoll();
  }
 private:
  Status MaybeRoll() { return log_.Roll(false); }
  common::RecordLog log_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(log_mu, 10)};
};
)";

TEST(LintR8Test, FlagsLockedCallIntoABlockingHelper) {
  LintReport report = LintOne("src/a.cc", kR8HelperIo);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR8BlockingUnderLock);
  EXPECT_EQ(report.findings[0].line, 6u);
  EXPECT_NE(report.findings[0].message.find("Log::MaybeRoll"),
            std::string::npos)
      << report.findings[0].message;
  EXPECT_NE(report.findings[0].message.find("log_.Roll()"), std::string::npos)
      << report.findings[0].message;
  ExpectBaselineable("src/a.cc", kR8HelperIo);
}

TEST(LintR8Test, LockedCallIntoABlockingHelperIsSilentWithNolint) {
  LintReport report = LintOne("src/a.cc", R"(
class Log {
 public:
  Status Append() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    return this->MaybeRoll();  // NOLINT(opdelta-R8: segments roll in frame order)
  }
 private:
  Status MaybeRoll() { return log_.Roll(false); }
  common::RecordLog log_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(log_mu, 10)};
};
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
}

TEST(LintR8Test, NegativeForLockedCallIntoANonBlockingHelper) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
class Log {
 public:
  Status Append() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    return Count();
  }
 private:
  Status Count() { ++appends_; return Status::OK(); }
  int appends_ = 0;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(log_mu, 10)};
};
)")
                  .clean());
}

TEST(LintR8Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/a.cc", R"(
class Store {
 public:
  Status Save() {
    std::lock_guard<common::OrderedMutex> g(mu_);
    return file_->Sync();  // NOLINT(opdelta-R8: group-commit fixture)
  }
 private:
  WritableFile* file_;
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(store_mu, 10)};
};
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
  ExpectBaselineable("src/a.cc", kR8BlockingIo);
}

// --------------------------------------------------------------------- R9

constexpr char kR9Unranked[] = R"(
class A {
 private:
  common::OrderedMutex mu_;
};
)";

TEST(LintR9Test, FlagsUnrankedOrderedMutex) {
  LintReport report = LintOne("src/a.cc", kR9Unranked);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR9UnrankedMutex);
  EXPECT_NE(report.findings[0].message.find("OPDELTA_LOCK_RANK"),
            std::string::npos);
}

TEST(LintR9Test, FlagsBareStdMutexInSrc) {
  LintReport report = LintOne("src/a.cc", R"(
class A {
 private:
  std::mutex m_;
  std::shared_mutex sm_;
};
)");
  EXPECT_EQ(RuleIds(report.findings),
            (std::vector<RuleId>{RuleId::kR9UnrankedMutex,
                                 RuleId::kR9UnrankedMutex}));
  EXPECT_NE(report.findings[0].message.find("bypasses the lock hierarchy"),
            std::string::npos);
}

TEST(LintR9Test, NegativeForRankedDeclarationsAndOutsideSrc) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
class A {
 private:
  common::OrderedMutex mu_{OPDELTA_LOCK_RANK(a_mu, 10)};
  common::OrderedSharedMutex latch_{OPDELTA_LOCK_RANK(a_latch, 20)};
};
)")
                  .clean());
  // Tests and tools may use bare mutexes (deliberate-inversion fixtures,
  // the linter's own scaffolding).
  EXPECT_TRUE(LintOne("tools/x/y.cc", kR9Unranked).clean());
}

TEST(LintR9Test, SuppressedAndBaselined) {
  LintReport report = LintOne("src/a.cc", R"(
class A {
 private:
  common::OrderedMutex mu_;  // NOLINT(opdelta-R9: staged migration fixture)
};
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
  ExpectBaselineable("src/a.cc", kR9Unranked);
}

// -------------------------------------------- lexer: directive literals

TEST(LintLexerTest, MultiLineRawStringInDirectiveDoesNotLeakTokens) {
  // Before the fix the directive scan stopped at the first newline and the
  // raw string's remaining lines lexed as code: `new`, `delete`, and
  // `::open` inside SQL text produced phantom R2/R4 findings.
  FileUnit unit = Lex("src/x.cc", R"__(#define QUERY R"(first
second new delete ::open
)"
int after = 1;
)__");
  for (const Token& t : unit.tokens) {
    EXPECT_FALSE(t.IsIdent("new"));
    EXPECT_FALSE(t.IsIdent("delete"));
    EXPECT_FALSE(t.IsIdent("open"));
    EXPECT_FALSE(t.IsIdent("second"));
  }
  bool saw_after = false;
  for (const Token& t : unit.tokens) {
    if (t.IsIdent("after")) {
      saw_after = true;
      EXPECT_EQ(t.line, 4u);  // line counting survived the raw string
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(LintLexerTest, StringInDirectiveIsNotACommentStart) {
  // `//` inside a quoted directive string ("http://...") must not start a
  // comment (it used to swallow the rest of the line into the comment
  // list, where NOLINT scanning could misread it).
  FileUnit unit = Lex("src/x.cc",
                      "#define URL \"http://example.com/x\"\n"
                      "#define MSG \"say \\\"hi\\\" // quoted\"\n"
                      "int y = 2;\n");
  EXPECT_TRUE(unit.comments.empty());
  bool saw_y = false;
  for (const Token& t : unit.tokens) {
    EXPECT_FALSE(t.IsIdent("example"));
    EXPECT_FALSE(t.IsIdent("quoted"));
    if (t.IsIdent("y")) saw_y = true;
  }
  EXPECT_TRUE(saw_y);
}

// ----------------------------------------------------------- suppressions

TEST(LintSuppressionTest, NolintNextLineAndWrongRule) {
  EXPECT_TRUE(LintOne("src/a.cc", R"(
Status DoThing();
void Caller() {
  // NOLINTNEXTLINE(opdelta-R1: fixture)
  DoThing();
}
)")
                  .clean());

  // A NOLINT naming a different rule does not silence this finding.
  LintReport report = LintOne("src/a.cc", R"(
Status DoThing();
void Caller() {
  DoThing();  // NOLINT(opdelta-R2: wrong rule on purpose)
}
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.suppressed.empty());
}

TEST(LintSuppressionTest, ReasonlessNolintIsItselfAFinding) {
  // The suppression still works (the R1 finding is silenced), but the
  // reasonless NOLINT surfaces as an R5 hygiene finding in its place.
  LintReport report = LintOne("src/a.cc", R"(
Status DoThing();
void Caller() {
  DoThing();  // NOLINT(opdelta-R1)
}
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR5Hygiene);
  EXPECT_NE(report.findings[0].message.find("without a reason"),
            std::string::npos);
  EXPECT_EQ(report.suppressed.size(), 1u);
}

TEST(LintSuppressionTest, WhitespaceOnlyReasonCountsAsMissing) {
  LintReport report = LintOne("src/a.cc", R"(
Status DoThing();
void Caller() {
  DoThing();  // NOLINT(opdelta-R1:   )
}
)");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR5Hygiene);
}

TEST(LintSuppressionTest, ReasonlessNolintCannotSilenceOrBaselineItself) {
  // Naming R5 in the reasonless NOLINT must not suppress the malformed-
  // suppression finding, and feeding it back as a baseline must not absorb
  // it either: the debt always stays visible until a reason is written.
  constexpr char kSelf[] = R"(
int x;  // NOLINT(opdelta-R5)
)";
  LintReport report = LintOne("src/a.cc", kSelf);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, RuleId::kR5Hygiene);

  LintReport rerun =
      LintOne("src/a.cc", kSelf, FormatBaseline(report.findings));
  ASSERT_EQ(rerun.findings.size(), 1u);
  EXPECT_EQ(rerun.findings[0].rule, RuleId::kR5Hygiene);
}

TEST(LintSuppressionTest, MultiRuleNolintWithReasonSuppressesAll) {
  LintReport report = LintOne("src/a.cc", R"(
Status DoThing();
void Caller() {
  DoThing();  // NOLINT(opdelta-R1, opdelta-R2: fixture covers both)
}
)");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed.size(), 1u);
}

// --------------------------------------------------------------- baseline

TEST(LintBaselineTest, StaleEntriesAreReported) {
  const std::string baseline =
      "# comment line\n"
      "opdelta-R1|src/gone.cc|Vanished();\n";
  LintReport report = LintOne("src/a.cc", "int x;\n", baseline);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.stale_baseline_entries.size(), 1u);
  EXPECT_NE(report.stale_baseline_entries[0].find("Vanished"),
            std::string::npos);
}

TEST(LintBaselineTest, EntriesSurviveReformatting) {
  LintReport first = LintOne("src/a.cc", kR1Positive);
  ASSERT_EQ(first.findings.size(), 1u);
  const std::string baseline = FormatBaseline(first.findings);
  // Reindenting must not invalidate the entry (leading whitespace is
  // trimmed before snippets are compared).
  LintReport second = LintOne("src/a.cc", R"(
Status DoThing();
void Caller() {
        DoThing();
}
)",
                              baseline);
  EXPECT_TRUE(second.clean());
  EXPECT_EQ(second.baselined.size(), 1u);
}

}  // namespace
}  // namespace opdelta::lint
