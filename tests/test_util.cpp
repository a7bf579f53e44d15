// Unit tests for the util substrate: RNG, CSV/tables, cache, env knobs and
// the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <latch>
#include <set>
#include <sstream>
#include <thread>

#include "util/cache.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace efficsense;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(99);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, GaussianMeanStd) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(7), 7u);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<std::size_t> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be equal
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(1234);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
  // Splitting again with the same stream id reproduces the stream.
  Rng a2 = parent.split(0);
  Rng a3 = parent.split(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a2(), a3());
}

TEST(Rng, SplitSeedMatchesDeriveSeed) {
  // The batched chain builders rely on this identity: the lane stream
  // split() hands out is seeded with exactly the value a scalar block
  // passes to its own constructor via derive_seed — so lane i's RNG is
  // independent of the lane width it rides in.
  Rng parent(0xFAB);
  EXPECT_EQ(parent.split(3).seed(), derive_seed(0xFAB, 3));
  Rng split = parent.split(3);
  Rng direct(derive_seed(0xFAB, 3));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(split(), direct());
}

TEST(Rng, SplitResetsCachedGaussian) {
  // Box-Muller caches the second variate. split() must hand out a stream
  // whose gaussian sequence matches a freshly seeded generator even when
  // the parent has a variate cached — a lane inheriting half a draw would
  // silently desynchronize from its scalar oracle.
  Rng parent(0xFAB);
  (void)parent.gaussian();  // leaves the second Box-Muller variate cached
  Rng stream = parent.split(7);
  Rng fresh(derive_seed(0xFAB, 7));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stream.gaussian()),
              std::bit_cast<std::uint64_t>(fresh.gaussian()));
  }
}

TEST(Rng, DeriveSeedStable) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
}

TEST(Rng, ChanceExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriterRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  w.row(std::vector<std::string>{"1", "x,y"});
  w.row(std::vector<double>{2.5, 1e-9});
  EXPECT_EQ(w.rows_written(), 2u);
  const std::string out = os.str();
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
}

TEST(Csv, WidthMismatchThrows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  EXPECT_THROW(w.row(std::vector<std::string>{"only-one"}), Error);
}

TEST(Csv, FormatNumber) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_NE(format_number(2.44e-6).find("e-06"), std::string::npos);
}

TEST(Csv, FormatPower) {
  EXPECT_EQ(format_power(2.44e-6), "2.44 uW");
  EXPECT_EQ(format_power(1.0e-3), "1 mW");
  EXPECT_EQ(format_power(5.0e-9), "5 nW");
}

TEST(Table, AlignedOutput) {
  TablePrinter t({"name", "value"});
  t.add_row(std::vector<std::string>{"x", "1"});
  t.add_row(std::vector<double>{3.25, 7.0});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_NE(os.str().find("name"), std::string::npos);
  EXPECT_NE(os.str().find("3.25"), std::string::npos);
}

TEST(Cache, StoreLoadErase) {
  const std::string dir = "test_cache_tmp";
  FileCache cache(dir);
  EXPECT_FALSE(cache.load("missing").has_value());
  cache.store("key-1", "hello world");
  auto loaded = cache.load("key-1");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "hello world");
  cache.erase("key-1");
  EXPECT_FALSE(cache.load("key-1").has_value());
  std::filesystem::remove_all(dir);
}

TEST(Cache, DifferentKeysDifferentFiles) {
  const std::string dir = "test_cache_tmp2";
  FileCache cache(dir);
  cache.store("a", "1");
  cache.store("b", "2");
  EXPECT_EQ(*cache.load("a"), "1");
  EXPECT_EQ(*cache.load("b"), "2");
  std::filesystem::remove_all(dir);
}

TEST(Cache, Fnv1aStable) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ULL);
}

TEST(Env, ParsesValues) {
  ::setenv("EFF_TEST_INT", "42", 1);
  ::setenv("EFF_TEST_DBL", "2.5", 1);
  ::setenv("EFF_TEST_BOOL", "yes", 1);
  EXPECT_EQ(env_int("EFF_TEST_INT", 0), 42);
  EXPECT_DOUBLE_EQ(env_double("EFF_TEST_DBL", 0.0), 2.5);
  EXPECT_TRUE(env_bool("EFF_TEST_BOOL", false));
  ::unsetenv("EFF_TEST_INT");
  ::unsetenv("EFF_TEST_DBL");
  ::unsetenv("EFF_TEST_BOOL");
}

TEST(Env, FallsBackOnMissingOrInvalid) {
  ::unsetenv("EFF_TEST_NONE");
  EXPECT_EQ(env_int("EFF_TEST_NONE", 7), 7);
  EXPECT_DOUBLE_EQ(env_double("EFF_TEST_NONE", 1.5), 1.5);
  EXPECT_FALSE(env_bool("EFF_TEST_NONE", false));
  ::setenv("EFF_TEST_BAD", "not-a-number", 1);
  EXPECT_EQ(env_int("EFF_TEST_BAD", 9), 9);
  ::unsetenv("EFF_TEST_BAD");
}

TEST(Env, StringValues) {
  ::setenv("EFF_TEST_STR", "trace.json", 1);
  EXPECT_EQ(env_string("EFF_TEST_STR", ""), "trace.json");
  ::unsetenv("EFF_TEST_STR");
  EXPECT_EQ(env_string("EFF_TEST_STR", "fallback"), "fallback");
  // An empty value is a present-but-empty string, not a fallback.
  ::setenv("EFF_TEST_STR", "", 1);
  EXPECT_EQ(env_string("EFF_TEST_STR", "fallback"), "");
  ::unsetenv("EFF_TEST_STR");
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, StatsAccountForAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  pool.parallel_for(64, [&](std::size_t) {
    ran.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  EXPECT_EQ(ran.load(), 64);

  // parallel_for returns only once no worker holds its job any more, so
  // the pool is at rest right away: no open job, no busy worker.
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.open_jobs, 0u);
  EXPECT_EQ(stats.busy_workers, 0u);
  EXPECT_LE(stats.tasks_completed, 64u);  // the caller ran the rest
  ASSERT_EQ(stats.worker_tasks.size(), 3u);
  ASSERT_EQ(stats.worker_busy_s.size(), 3u);
  std::uint64_t sum = 0;
  for (auto t : stats.worker_tasks) sum += t;
  EXPECT_EQ(sum, stats.tasks_completed);
  for (double s : stats.worker_busy_s) EXPECT_GE(s, 0.0);
  // Utilization is busy time over worker-count x wall time: well-defined
  // and zero for degenerate wall times.
  EXPECT_GE(stats.utilization(10.0), 0.0);
  EXPECT_LE(stats.utilization(10.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.utilization(0.0), 0.0);
  // A window's delta: nothing ran since the snapshot.
  const ThreadPool::Stats idle = pool.stats().minus(stats);
  EXPECT_EQ(idle.tasks_completed, 0u);
  EXPECT_DOUBLE_EQ(idle.utilization(1.0), 0.0);
}

namespace {

/// On a one-worker pool, open a two-index inner job from the calling
/// thread while the worker is busy with an outer item, and let the worker
/// finish that item only once the inner job is open. inner(i) runs each
/// inner index; inner index 0 holds the calling thread until inner index 1
/// has started, so index 1 can only run on the worker, after it joined.
/// Returns what the inner parallel_for threw at its opener (empty if
/// nothing) and, through `joined_on`, the thread that ran inner index 1.
std::string open_inner_while_worker_busy(
    ThreadPool& pool, const std::function<void(std::size_t)>& inner,
    std::thread::id* joined_on) {
  const std::thread::id opener = std::this_thread::get_id();
  std::latch both_outer_started(2), inner_open(1), both_inner_started(2);
  std::string thrown;
  pool.parallel_for(2, [&](std::size_t) {
    // Both outer items run at once, so one is on the opener's thread and
    // the other on the worker.
    both_outer_started.arrive_and_wait();
    if (std::this_thread::get_id() != opener) {
      inner_open.wait();  // busy until the inner job has opened
      return;
    }
    try {
      pool.parallel_for(2, [&](std::size_t i) {
        if (i == 0) {
          inner_open.count_down();
        } else {
          *joined_on = std::this_thread::get_id();
        }
        both_inner_started.arrive_and_wait();
        inner(i);
      });
    } catch (const std::exception& e) {
      thrown = e.what();
    }
  });
  return thrown;
}

}  // namespace

TEST(ThreadPool, IdleWorkerJoinsInnerJobOpenedWhileBusy) {
  ThreadPool pool(1);
  std::atomic<int> inner_ran{0};
  std::atomic<ThreadPool*> seen_current[2] = {nullptr, nullptr};
  std::thread::id joined_on;
  const std::string thrown = open_inner_while_worker_busy(
      pool,
      [&](std::size_t i) {
        seen_current[i] = ThreadPool::current();
        inner_ran.fetch_add(1);
      },
      &joined_on);
  EXPECT_TRUE(thrown.empty()) << thrown;
  EXPECT_EQ(inner_ran.load(), 2);
  EXPECT_NE(joined_on, std::this_thread::get_id());
  EXPECT_EQ(seen_current[0].load(), &pool);
  EXPECT_EQ(seen_current[1].load(), &pool);
  // One outer and one inner item ran on the worker.
  EXPECT_EQ(pool.stats().tasks_completed, 2u);
}

TEST(ThreadPool, ExceptionInJoinedItemIsRethrownAtOpener) {
  ThreadPool pool(1);
  std::thread::id joined_on;
  const std::string thrown = open_inner_while_worker_busy(
      pool,
      [](std::size_t i) {
        if (i == 1) throw Error("joined item failed");
      },
      &joined_on);
  EXPECT_NE(joined_on, std::this_thread::get_id());
  EXPECT_NE(thrown.find("joined item failed"), std::string::npos) << thrown;
  EXPECT_EQ(pool.open_jobs(), 0u);
}

TEST(ThreadPool, OpenJobListIsEmptyAfterParallelForReturns) {
  ThreadPool pool(3);
  const std::thread::id opener = std::this_thread::get_id();
  std::atomic<int> closed_too_early{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      // While the opener runs an outer item, the outer job stays open
      // under the inner one.
      if (std::this_thread::get_id() == opener && pool.open_jobs() < 2) {
        closed_too_early.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(closed_too_early.load(), 0);
  EXPECT_EQ(pool.open_jobs(), 0u);
  EXPECT_EQ(pool.stats().open_jobs, 0u);
  EXPECT_EQ(pool.busy_workers(), 0u);
}

TEST(ThreadPool, CurrentNamesThePoolOnlyOnItsThreads) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool outer(2), inner(2);
  std::atomic<int> wrong{0};
  outer.parallel_for(6, [&](std::size_t) {
    if (ThreadPool::current() != &outer) wrong.fetch_add(1);
    inner.parallel_for(4, [&](std::size_t) {
      if (ThreadPool::current() != &inner) wrong.fetch_add(1);
    });
    // Restored once the inner pool's job returns.
    if (ThreadPool::current() != &outer) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool* on_fresh_thread = &outer;
  std::thread([&] { on_fresh_thread = ThreadPool::current(); }).join();
  EXPECT_EQ(on_fresh_thread, nullptr);
}

TEST(Constants, PhysicallyPlausible) {
  EXPECT_NEAR(units::kT, 4.14e-21, 0.05e-21);
  EXPECT_DOUBLE_EQ(units::kBoltzmann * units::kRoomTemperature, units::kT);
}

TEST(Error, RequireMacroThrowsWithMessage) {
  try {
    EFF_REQUIRE(false, "context here");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}
