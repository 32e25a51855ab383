#include "ipc/port_file.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <thread>

#include <gtest/gtest.h>

#include "support/temp_file.hpp"
#include "support/timing.hpp"

namespace dionea::ipc {
namespace {

class PortFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto created = TempDir::create("portfile-test");
    ASSERT_TRUE(created.is_ok());
    tmp_ = std::make_unique<TempDir>(std::move(created).value());
  }
  std::string path() const { return tmp_->file("ports"); }
  std::unique_ptr<TempDir> tmp_;
};

TEST_F(PortFileTest, EmptyOrMissingFileReadsEmpty) {
  PortFile file(path());
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  EXPECT_TRUE(records.value().empty());
}

TEST_F(PortFileTest, PublishReadRoundTrip) {
  PortFile file(path());
  PortRecord record{1234, 1000, 45678, 0};
  ASSERT_TRUE(file.publish(record).is_ok());
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0], record);
}

TEST_F(PortFileTest, AppendsPreserveOrder) {
  PortFile file(path());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(file.publish(PortRecord{100 + i, 1,
        static_cast<std::uint16_t>(2000 + i), i}).is_ok());
  }
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records.value()[static_cast<size_t>(i)].pid, 100 + i);
  }
}

TEST_F(PortFileTest, ReadNewSkipsSeen) {
  PortFile file(path());
  ASSERT_TRUE(file.publish(PortRecord{1, 0, 1000, 0}).is_ok());
  ASSERT_TRUE(file.publish(PortRecord{2, 0, 1001, 0}).is_ok());
  auto fresh = file.read_new(1);
  ASSERT_TRUE(fresh.is_ok());
  ASSERT_EQ(fresh.value().size(), 1u);
  EXPECT_EQ(fresh.value()[0].pid, 2);
  EXPECT_TRUE(file.read_new(2).value().empty());
  EXPECT_TRUE(file.read_new(99).value().empty());
}

TEST_F(PortFileTest, TornAndGarbageLinesSkipped) {
  PortFile file(path());
  ASSERT_TRUE(file.publish(PortRecord{1, 0, 1000, 0}).is_ok());
  // Simulate garbage and a torn write.
  ASSERT_TRUE(write_file_atomic(
      path(), read_file(path()).value() + "garbage line\n77 88\n-1 0 99999 0\n" +
                  "2 0 1001 0\n").is_ok());
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 2u);  // the two valid records
  EXPECT_EQ(records.value()[1].pid, 2);
}

TEST_F(PortFileTest, AwaitPidReturnsLatestRecord) {
  PortFile file(path());
  ASSERT_TRUE(file.publish(PortRecord{5, 0, 1000, 0}).is_ok());
  ASSERT_TRUE(file.publish(PortRecord{5, 0, 2000, 1}).is_ok());  // re-publish
  auto record = file.await_pid(5, 500);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record.value().port, 2000);  // latest wins
}

TEST_F(PortFileTest, AwaitPidTimesOut) {
  PortFile file(path());
  Stopwatch watch;
  auto record = file.await_pid(404, 100);
  ASSERT_FALSE(record.is_ok());
  EXPECT_EQ(record.error().code(), ErrorCode::kTimeout);
  EXPECT_GE(watch.elapsed_seconds(), 0.09);
}

TEST_F(PortFileTest, AwaitPidSeesLatePublisher) {
  PortFile file(path());
  std::thread publisher([this] {
    sleep_for_millis(50);
    PortFile late(path());
    EXPECT_TRUE(late.publish(PortRecord{777, 1, 3333, 0}).is_ok());
  });
  auto record = file.await_pid(777, 3000);
  publisher.join();
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record.value().port, 3333);
}

TEST_F(PortFileTest, TailReadsOnlyCompleteLines) {
  PortFile file(path());
  std::uint64_t offset = 0;
  ASSERT_TRUE(file.publish(PortRecord{1, 0, 1000, 0}).is_ok());
  // A writer died mid-append: a torn tail with no '\n'.
  ASSERT_TRUE(write_file_atomic(path(), read_file(path()).value() + "2 0 10")
                  .is_ok());
  auto first = file.tail(&offset);
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first.value().size(), 1u);
  EXPECT_EQ(first.value()[0].pid, 1);
  const std::uint64_t after_first = offset;
  EXPECT_TRUE(file.tail(&offset).value().empty());
  EXPECT_EQ(offset, after_first);  // the torn tail stays unconsumed

  // The next publisher's leading '\n' completes the torn line, which is
  // then skipped as garbage; the new record is read exactly once.
  ASSERT_TRUE(file.publish(PortRecord{3, 0, 1003, 0}).is_ok());
  auto second = file.tail(&offset);
  ASSERT_TRUE(second.is_ok());
  ASSERT_EQ(second.value().size(), 1u);
  EXPECT_EQ(second.value()[0], (PortRecord{3, 0, 1003, 0}));
  EXPECT_TRUE(file.tail(&offset).value().empty());
  EXPECT_EQ(file.read_all().value().size(), 2u);
}

TEST_F(PortFileTest, TailSkipsGarbageLines) {
  PortFile file(path());
  ASSERT_TRUE(write_file_atomic(
      path(), "garbage line\n77 88\n1 0 1000 0\n-1 0 99999 0\n\n2 0 1001 1\n")
                  .is_ok());
  std::uint64_t offset = 0;
  auto records = file.tail(&offset);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[0].pid, 1);
  EXPECT_EQ(records.value()[1].pid, 2);
  EXPECT_EQ(offset, read_file(path()).value().size());
}

TEST_F(PortFileTest, TailRestartsWhenFileIsRecreated) {
  PortFile file(path());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(file.publish(PortRecord{100 + i, 0, 2000, i}).is_ok());
  }
  std::uint64_t offset = 0;
  ASSERT_EQ(file.tail(&offset).value().size(), 3u);
  // Recreated, shorter than what was read: start again at byte 0.
  ASSERT_TRUE(write_file_atomic(path(), "7 0 3000 0\n").is_ok());
  auto records = file.tail(&offset);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].pid, 7);
  // Removed, then published afresh.
  ASSERT_EQ(::unlink(path().c_str()), 0);
  EXPECT_TRUE(file.tail(&offset).value().empty());
  EXPECT_EQ(offset, 0u);
  ASSERT_TRUE(file.publish(PortRecord{8, 0, 3001, 0}).is_ok());
  records = file.tail(&offset);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].pid, 8);
}

TEST_F(PortFileTest, TailAfterManyRecordsReturnsOnlyTheNewOne) {
  PortFile file(path());
  constexpr int kRecords = 10'000;
  std::string contents;
  for (int i = 0; i < kRecords; ++i) {
    contents += std::to_string(i + 1) + " 1 4000 " + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(write_file_atomic(path(), contents).is_ok());
  std::uint64_t offset = 0;
  ASSERT_EQ(file.tail(&offset).value().size(), static_cast<size_t>(kRecords));
  PortRecord last{kRecords + 1, 1, 4001, kRecords};
  ASSERT_TRUE(file.publish(last).is_ok());
  auto fresh = file.tail(&offset);
  ASSERT_TRUE(fresh.is_ok());
  ASSERT_EQ(fresh.value().size(), 1u);
  EXPECT_EQ(fresh.value()[0], last);
  // read_new and read_all see the same file as before.
  auto newest = file.read_new(kRecords);
  ASSERT_TRUE(newest.is_ok());
  ASSERT_EQ(newest.value().size(), 1u);
  EXPECT_EQ(newest.value()[0], last);
  EXPECT_EQ(file.read_all().value().size(), static_cast<size_t>(kRecords) + 1);
}

// The actual fork-handler usage: parent and child publish concurrently
// through O_APPEND; no record may be lost or torn.
TEST_F(PortFileTest, ConcurrentPublishersAcrossFork) {
  PortFile file(path());
  constexpr int kPerSide = 50;
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    PortFile child(path());
    for (int i = 0; i < kPerSide; ++i) {
      if (!child.publish(PortRecord{20'000 + i, 1, 1500, i}).is_ok()) {
        ::_exit(1);
      }
    }
    ::_exit(0);
  }
  for (int i = 0; i < kPerSide; ++i) {
    ASSERT_TRUE(file.publish(PortRecord{10'000 + i, 1, 1400, i}).is_ok());
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_EQ(WEXITSTATUS(status), 0);
  auto records = file.read_all();
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 2u * kPerSide);
}

}  // namespace
}  // namespace dionea::ipc
