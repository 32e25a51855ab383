// The §7 workload: three implementations (native, mp::Pool, MiniLang
// multi-process) must agree exactly.
#include <gtest/gtest.h>

#include "mapreduce/wordcount.hpp"
#include "mp/vm_bindings.hpp"
#include "testutil.hpp"
#include "vm/interp.hpp"

namespace dionea::mapreduce {
namespace {

TEST(CountWordsTest, PaperFilterRules) {
  // "maps words that contain only letters and are not reserved words"
  WordCounts counts = count_words(
      "Foo foo FOO bar2 if while end zig zig zig 42 x_y !");
  EXPECT_EQ(counts["foo"], 3);      // case-folded
  EXPECT_EQ(counts["zig"], 3);
  EXPECT_EQ(counts.count("bar2"), 0u);   // digits
  EXPECT_EQ(counts.count("if"), 0u);     // reserved
  EXPECT_EQ(counts.count("while"), 0u);  // reserved
  EXPECT_EQ(counts.count("x_y"), 0u);    // underscore
  EXPECT_EQ(counts.count("42"), 0u);
  EXPECT_EQ(counts.size(), 2u);
}

TEST(CountWordsTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(count_words("").empty());
  EXPECT_TRUE(count_words("  \n\t ").empty());
  EXPECT_TRUE(count_words("123 456 ++ --").empty());
}

TEST(MergeCountsTest, Accumulates) {
  WordCounts total{{"a", 1}, {"b", 2}};
  merge_counts(&total, WordCounts{{"b", 3}, {"c", 4}});
  EXPECT_EQ(total["a"], 1);
  EXPECT_EQ(total["b"], 5);
  EXPECT_EQ(total["c"], 4);
}

TEST(DigestTest, DistinguishesCounts) {
  WordCounts a{{"x", 1}};
  WordCounts b{{"x", 2}};
  WordCounts c{{"y", 1}};
  EXPECT_EQ(digest(a), digest(a));
  EXPECT_NE(digest(a).fnv, digest(b).fnv);
  EXPECT_NE(digest(a).fnv, digest(c).fnv);
  EXPECT_EQ(digest(a).unique, 1);
  EXPECT_EQ(digest(b).total, 2);
}

class WordcountAgreement : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tmp = TempDir::create("wc-test");
    ASSERT_TRUE(tmp.is_ok());
    tmp_ = std::make_unique<TempDir>(std::move(tmp).value());
    CorpusSpec spec = dionea_trunk_spec();
    spec.file_count = 12;  // keep the test fast
    auto corpus = Corpus::generate(spec, tmp_->file("corpus"));
    ASSERT_TRUE(corpus.is_ok());
    corpus_ = std::make_unique<Corpus>(std::move(corpus).value());
    auto native = count_corpus(*corpus_);
    ASSERT_TRUE(native.is_ok());
    native_ = native.value();
  }

  std::unique_ptr<TempDir> tmp_;
  std::unique_ptr<Corpus> corpus_;
  WordCounts native_;
};

TEST_F(WordcountAgreement, PoolMatchesNative) {
  auto pooled = pool_count_corpus(*corpus_, 3);
  ASSERT_TRUE(pooled.is_ok()) << pooled.error().to_string();
  EXPECT_EQ(digest(pooled.value()), digest(native_));
}

TEST_F(WordcountAgreement, PoolWorkerCountIrrelevantToResult) {
  auto one = pool_count_corpus(*corpus_, 1);
  auto many = pool_count_corpus(*corpus_, 6);
  ASSERT_TRUE(one.is_ok());
  ASSERT_TRUE(many.is_ok());
  EXPECT_EQ(digest(one.value()), digest(many.value()));
}

TEST_F(WordcountAgreement, MiniLangMultiProcessMatchesNative) {
  vm::Interp interp;
  mp::install_vm_bindings(interp.vm());
  std::string output;
  interp.vm().set_output([&](std::string_view s) { output.append(s); });
  auto result = interp.run_string(wordcount_program(corpus_->root(), 3),
                                  "wordcount.ml");
  if (interp.vm().is_forked_child()) ::_exit(0);
  ASSERT_TRUE(result.ok) << result.error.to_string();
  CountsDigest d = digest(native_);
  EXPECT_EQ(output, "unique=" + std::to_string(d.unique) +
                        " total=" + std::to_string(d.total) + "\n");
}

TEST_F(WordcountAgreement, MiniLangSerialMatchesNative) {
  vm::Interp interp;
  mp::install_vm_bindings(interp.vm());
  std::string output;
  interp.vm().set_output([&](std::string_view s) { output.append(s); });
  auto result = interp.run_string(wordcount_program_serial(corpus_->root()),
                                  "wordcount_serial.ml");
  ASSERT_TRUE(result.ok) << result.error.to_string();
  CountsDigest d = digest(native_);
  EXPECT_EQ(output, "unique=" + std::to_string(d.unique) +
                        " total=" + std::to_string(d.total) + "\n");
}

// More paths than the task queue's pipe holds (~64 KiB): the workers
// must already be draining it while the parent feeds them, or the
// parent blocks in ipc_push forever.
TEST(WordcountFeedTest, PathsBeyondPipeCapacityDoNotDeadlock) {
  auto tmp = TempDir::create("wc-feed");
  ASSERT_TRUE(tmp.is_ok());
  CorpusSpec spec;
  spec.name = "feed";
  spec.file_count = 2500;
  spec.target_bytes_per_file = 64;
  const std::string root = tmp.value().file(std::string(120, 'r'));
  auto corpus = Corpus::generate(spec, root);
  ASSERT_TRUE(corpus.is_ok()) << corpus.error().to_string();
  auto native = count_corpus(corpus.value());
  ASSERT_TRUE(native.is_ok());
  ASSERT_GT(corpus.value().files().size() * root.size(), 64u * 1024);

  // Run in a child so a deadlock fails within the deadline.
  const std::string out_path = tmp.value().file("out");
  std::fflush(nullptr);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setpgid(0, 0);  // one group with the workers, for the kill below
    vm::Interp interp;
    mp::install_vm_bindings(interp.vm());
    std::string output;
    interp.vm().set_output([&](std::string_view t) { output.append(t); });
    auto result = interp.run_string(wordcount_program(corpus.value().root(), 3),
                                    "wordcount.ml");
    if (interp.vm().is_forked_child()) ::_exit(0);
    ::_exit(result.ok && write_file(out_path, output).is_ok() ? 0 : 1);
  }
  int status = 0;
  bool exited = test::poll_until(
      [&] { return ::waitpid(pid, &status, WNOHANG) == pid; }, 30'000);
  if (!exited) {
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  ASSERT_TRUE(exited) << "wordcount_program still blocked after 30 s";
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  CountsDigest d = digest(native.value());
  EXPECT_EQ(read_file(out_path).value_or(""),
            "unique=" + std::to_string(d.unique) +
                " total=" + std::to_string(d.total) + "\n");
}

TEST_F(WordcountAgreement, ProgramTextEmbedsParameters) {
  std::string program = wordcount_program("/some/root", 7);
  EXPECT_NE(program.find("\"/some/root\""), std::string::npos);
  EXPECT_NE(program.find("nworkers = 7"), std::string::npos);
  // Reserved words map present (the paper's filter).
  EXPECT_NE(program.find("\"while\": true"), std::string::npos);
}

}  // namespace
}  // namespace dionea::mapreduce
