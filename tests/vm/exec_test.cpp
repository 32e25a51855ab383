// MiniLang execution semantics: expressions, control flow, functions,
// closures, containers. Each test runs a program in a fresh VM and
// checks its output — the same surface a debuggee exercises.
#include <gtest/gtest.h>

#include "testutil.hpp"

namespace dionea::vm {
namespace {

using test::expect_ml_error;
using test::expect_ml_output;
using test::run_ml;

// ---- expression evaluation, parameterized sweep ----

struct ExprCase {
  const char* expr;
  const char* expected;  // repr() of the result
};

class ExprEval : public ::testing::TestWithParam<ExprCase> {};

TEST_P(ExprEval, EvaluatesTo) {
  const ExprCase& c = GetParam();
  expect_ml_output(std::string("puts(repr(") + c.expr + "))",
                   std::string(c.expected) + "\n");
}

INSTANTIATE_TEST_SUITE_P(Arithmetic, ExprEval, ::testing::Values(
    ExprCase{"1 + 2", "3"},
    ExprCase{"7 - 10", "-3"},
    ExprCase{"6 * 7", "42"},
    ExprCase{"7 / 2", "3"},          // int division truncates
    ExprCase{"-7 / 2", "-3"},
    ExprCase{"7 % 3", "1"},
    ExprCase{"7.0 / 2", "3.5"},      // float contaminates
    ExprCase{"1 + 2.5", "3.5"},
    ExprCase{"-(3)", "-3"},
    ExprCase{"-2.5", "-2.5"},
    ExprCase{"2 * 3 + 4", "10"},
    ExprCase{"2 + 3 * 4", "14"},
    ExprCase{"(2 + 3) * 4", "20"}));

INSTANTIATE_TEST_SUITE_P(Comparison, ExprEval, ::testing::Values(
    ExprCase{"1 < 2", "true"},
    ExprCase{"2 < 1", "false"},
    ExprCase{"2 <= 2", "true"},
    ExprCase{"3 > 2.5", "true"},
    ExprCase{"2 >= 3", "false"},
    ExprCase{"1 == 1.0", "true"},
    ExprCase{"1 != 2", "true"},
    ExprCase{"\"a\" < \"b\"", "true"},
    ExprCase{"\"abc\" == \"abc\"", "true"},
    ExprCase{"\"a\" == 1", "false"},
    ExprCase{"nil == nil", "true"},
    ExprCase{"[1, 2] == [1, 2]", "true"},
    ExprCase{"[1] == [1, 2]", "false"},
    ExprCase{"{\"a\": 1} == {\"a\": 1}", "true"}));

INSTANTIATE_TEST_SUITE_P(Logic, ExprEval, ::testing::Values(
    ExprCase{"true and false", "false"},
    ExprCase{"true and 5", "5"},        // Ruby-ish: last operand
    ExprCase{"false and 5", "false"},   // short-circuit keeps lhs
    ExprCase{"nil or \"x\"", "\"x\""},
    ExprCase{"1 or 2", "1"},
    ExprCase{"not nil", "true"},
    ExprCase{"not 0", "false"},         // 0 is truthy
    ExprCase{"not not true", "true"}));

INSTANTIATE_TEST_SUITE_P(StringsAndContainers, ExprEval, ::testing::Values(
    ExprCase{"\"foo\" + \"bar\"", "\"foobar\""},
    ExprCase{"[1] + [2, 3]", "[1, 2, 3]"},
    ExprCase{"\"hello\"[1]", "\"e\""},
    ExprCase{"\"hello\"[-1]", "\"o\""},
    ExprCase{"[10, 20, 30][1]", "20"},
    ExprCase{"[10, 20, 30][-1]", "30"},
    ExprCase{"{\"k\": 9}[\"k\"]", "9"},
    ExprCase{"{\"k\": 9}[\"missing\"]", "nil"},
    ExprCase{"len(\"abc\")", "3"},
    ExprCase{"len([])", "0"},
    ExprCase{"len({\"a\": 1, \"b\": 2})", "2"}));

// ---- statements and control flow ----

TEST(ExecTest, GlobalAssignment) {
  expect_ml_output("x = 5\nx = x + 1\nputs(x)", "6\n");
}

TEST(ExecTest, IfElifElseBranches) {
  const char* program =
      "fn classify(n)\n"
      "  if n < 0\n    return \"neg\"\n"
      "  elif n == 0\n    return \"zero\"\n"
      "  else\n    return \"pos\"\n  end\n"
      "end\n"
      "puts(classify(-5))\nputs(classify(0))\nputs(classify(9))";
  expect_ml_output(program, "neg\nzero\npos\n");
}

TEST(ExecTest, WhileLoopWithBreakContinue) {
  const char* program =
      "total = 0\ni = 0\n"
      "while true\n"
      "  i = i + 1\n"
      "  if i > 10\n    break\n  end\n"
      "  if i % 2 == 0\n    continue\n  end\n"
      "  total = total + i\n"
      "end\n"
      "puts(total)";  // 1+3+5+7+9
  expect_ml_output(program, "25\n");
}

TEST(ExecTest, ForOverListMapStringInt) {
  expect_ml_output("for x in [7, 8]\n  puts(x)\nend", "7\n8\n");
  expect_ml_output("for k in {\"b\": 2, \"a\": 1}\n  puts(k)\nend",
                   "a\nb\n");  // map keys in sorted order
  expect_ml_output("for c in \"hi\"\n  puts(c)\nend", "h\ni\n");
  expect_ml_output("for i in 3\n  puts(i)\nend", "0\n1\n2\n");
}

TEST(ExecTest, ForSnapshotsTheList) {
  // Mutating the list during iteration does not affect the loop.
  const char* program =
      "l = [1, 2]\n"
      "for x in l\n  push(l, x + 10)\nend\n"
      "puts(len(l))";
  expect_ml_output(program, "4\n");
}

TEST(ExecTest, NestedLoopsAndBreakTargetsInnermost) {
  const char* program =
      "hits = 0\n"
      "for i in 3\n"
      "  for j in 3\n"
      "    if j == 1\n      break\n    end\n"
      "    hits = hits + 1\n"
      "  end\n"
      "end\n"
      "puts(hits)";
  expect_ml_output(program, "3\n");
}

// ---- functions and closures ----

TEST(ExecTest, RecursionFibonacci) {
  const char* program =
      "fn fib(n)\n"
      "  if n < 2\n    return n\n  end\n"
      "  return fib(n - 1) + fib(n - 2)\n"
      "end\n"
      "puts(fib(20))";
  expect_ml_output(program, "6765\n");
}

TEST(ExecTest, MutualRecursionThroughGlobals) {
  const char* program =
      "fn is_even(n)\n  if n == 0\n    return true\n  end\n"
      "  return is_odd(n - 1)\nend\n"
      "fn is_odd(n)\n  if n == 0\n    return false\n  end\n"
      "  return is_even(n - 1)\nend\n"
      "puts(is_even(10))\nputs(is_odd(7))";
  expect_ml_output(program, "true\ntrue\n");
}

TEST(ExecTest, ImplicitReturnIsNil) {
  expect_ml_output("fn f()\n  x = 1\nend\nputs(repr(f()))", "nil\n");
  expect_ml_output("fn g()\n  return\nend\nputs(repr(g()))", "nil\n");
}

TEST(ExecTest, FirstClassFunctions) {
  const char* program =
      "fn apply(f, x)\n  return f(x)\nend\n"
      "fn double(n)\n  return n * 2\nend\n"
      "puts(apply(double, 21))\n"
      "puts(apply(fn(n) return n + 1 end, 41))";
  expect_ml_output(program, "42\n42\n");
}

TEST(ExecTest, ClosureCapturesByValue) {
  // Scalars are captured at creation (by value); later changes to the
  // enclosing local don't show.
  const char* program =
      "fn make()\n"
      "  x = 1\n"
      "  f = fn() return x end\n"
      "  x = 99\n"
      "  return f\n"
      "end\n"
      "puts(make()())";
  expect_ml_output(program, "1\n");
}

TEST(ExecTest, ClosureSharesHeapObjects) {
  // Heap payloads alias through the captured handle — the property the
  // paper's `Thread.new { queue.push(true) }` depends on.
  const char* program =
      "fn make_counter()\n"
      "  box = [0]\n"
      "  return fn()\n"
      "    box[0] = box[0] + 1\n"
      "    return box[0]\n"
      "  end\n"
      "end\n"
      "c = make_counter()\n"
      "c()\nc()\nputs(c())";
  expect_ml_output(program, "3\n");
}

TEST(ExecTest, NestedClosuresCaptureTransitively) {
  const char* program =
      "fn outer(x)\n"
      "  return fn()\n"
      "    return fn() return x * 2 end\n"
      "  end\n"
      "end\n"
      "puts(outer(21)()())";
  expect_ml_output(program, "42\n");
}

TEST(ExecTest, CaptureWriteStaysInClosure) {
  const char* program =
      "fn make(x)\n"
      "  bump = fn()\n    x = x + 1\n    return x\n  end\n"
      "  bump()\n"
      "  return [bump(), x]\n"
      "end\n"
      "puts(repr(make(10)))";
  // The closure's copy advances (11, 12); the enclosing local stays 10.
  expect_ml_output(program, "[12, 10]\n");
}

TEST(ExecTest, MethodSugarDispatch) {
  expect_ml_output("l = []\nl.push(1)\nl.push(2)\nputs(repr(l))",
                   "[1, 2]\n");
  expect_ml_output("puts(\"ABC\".lower())", "abc\n");
}

// ---- containers ----

TEST(ExecTest, IndexAssignment) {
  expect_ml_output("l = [1, 2, 3]\nl[1] = 99\nl[-1] = 7\nputs(repr(l))",
                   "[1, 99, 7]\n");
  expect_ml_output("m = {}\nm[\"a\"] = 1\nm[\"a\"] = m[\"a\"] + 1\n"
                   "puts(repr(m))",
                   "{\"a\": 2}\n");
}

TEST(ExecTest, NestedContainers) {
  const char* program =
      "grid = [[1, 2], [3, 4]]\n"
      "grid[1][0] = 99\n"
      "puts(grid[1][0] + grid[0][1])";
  expect_ml_output(program, "101\n");
}

// Indexing a temporary: the index op overwrites the stack slot that
// holds the only reference to the container, so the element must be
// copied out first (a use-after-free under ASan otherwise).
TEST(ExecTest, IndexIntoTemporaryContainers) {
  expect_ml_output("puts([10, 20, 30][1])", "20\n");
  expect_ml_output("puts({\"a\": [1, 2]}[\"a\"][1])", "2\n");
  expect_ml_output("puts([[1, 2]][0][1])", "2\n");
  expect_ml_output("puts(repr([[\"x\", [3]]][0][1]))", "[3]\n");
}

TEST(ExecTest, MapLiteralEvaluationOrder) {
  expect_ml_output(
      "i = 0\nfn next()\n  return 1\nend\n"
      "m = {\"x\": next(), \"y\": next()}\nputs(len(m))",
      "2\n");
}

TEST(ExecTest, DeepRecursionHitsLimitCleanly) {
  test::RunOutcome outcome = run_ml(
      "fn down(n)\n  return down(n + 1)\nend\ndown(0)");
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error_message.find("stack level too deep"),
            std::string::npos);
}

TEST(ExecTest, LongLoopCompletes) {
  expect_ml_output(
      "total = 0\ni = 0\nwhile i < 100000\n  total = total + i\n  "
      "i = i + 1\nend\nputs(total)",
      "4999950000\n");
}

TEST(ExecTest, ShadowingParamInFunction) {
  const char* program =
      "x = \"global\"\n"
      "fn f(x)\n  x = x + \"!\"\n  return x\nend\n"
      "puts(f(\"local\"))\nputs(x)";
  expect_ml_output(program, "local!\nglobal\n");
}

TEST(ExecTest, ReturnValueOfAssignmentlessCall) {
  expect_ml_output("fn f()\n  return 5\nend\nf()\nputs(\"ok\")", "ok\n");
}

}  // namespace
}  // namespace dionea::vm
