"""Self-tests for scripts/nurd_lint.py.

Fixtures under scripts/tests/fixtures/ mirror the repo's src/ layout with
known-bad snippets (each invariant rule must FIRE) and known-good snippets
(scope boundaries and allowlists must SUPPRESS). Run via

  python3 -m unittest discover -s scripts/tests -v

or through the `nurd_lint_selftest` ctest entry.
"""

import os
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, SCRIPTS_DIR)

import nurd_lint  # noqa: E402

FIXTURES = os.path.join(SCRIPTS_DIR, "tests", "fixtures")


def lint(relpath, allowlist_text=None):
    """Lints one fixture file; returns the surviving findings."""
    allowlist = None
    if allowlist_text is not None:
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".txt", delete=False, encoding="utf-8")
        tmp.write(allowlist_text)
        tmp.close()
        allowlist = tmp.name
    try:
        findings, unused = nurd_lint.run(FIXTURES, allowlist, [relpath])
        return findings, unused
    finally:
        if allowlist:
            os.unlink(allowlist)


class WallClockRule(unittest.TestCase):
    def test_fires_on_every_marked_line(self):
        findings, _ = lint("src/core/bad_wallclock.cpp")
        wall = [f for f in findings if f.rule == "wall-clock"]
        self.assertEqual([f.line for f in wall], [7, 9, 13])

    def test_comments_and_strings_do_not_fire(self):
        findings, _ = lint("src/core/bad_wallclock.cpp")
        lines = {f.line for f in findings}
        self.assertNotIn(16, lines)  # comment mentioning system_clock
        self.assertNotIn(17, lines)  # string literal mentioning std::rand

    def test_serve_layer_is_out_of_scope(self):
        findings, _ = lint("src/serve/good_timing.cpp")
        self.assertEqual(findings, [])

    def test_scenario_subsystem_is_in_scope(self):
        findings, _ = lint("src/scenario/bad_entropy.cpp")
        wall = [f for f in findings if f.rule == "wall-clock"]
        self.assertEqual([f.line for f in wall], [8, 13])
        self.assertNotIn(17, {f.line for f in findings})  # comment

    def test_kernel_layer_is_in_scope(self):
        findings, _ = lint("src/kernel/bad_env.cpp")
        wall = [f for f in findings if f.rule == "wall-clock"]
        self.assertEqual([f.line for f in wall], [9, 14])
        self.assertNotIn(18, {f.line for f in findings})  # comment


class UnorderedIterationRule(unittest.TestCase):
    def test_fires_on_iteration_not_lookup(self):
        findings, _ = lint("src/eval/bad_unordered.cpp")
        unordered = [f for f in findings if f.rule == "unordered-iter"]
        self.assertEqual([f.line for f in unordered], [14, 17])

    def test_ordered_iteration_is_fine(self):
        findings, _ = lint("src/eval/bad_unordered.cpp")
        self.assertNotIn(20, {f.line for f in findings})


class TraceAccessRule(unittest.TestCase):
    def test_fires_outside_trace_layer(self):
        findings, _ = lint("src/eval/bad_trace_access.cpp")
        trace = [f for f in findings if f.rule == "trace-access"]
        self.assertEqual([f.line for f in trace], [14, 15])

    def test_trace_layer_itself_is_exempt(self):
        findings, _ = lint("src/trace/good_internal.cpp")
        self.assertEqual(findings, [])


class LockTableRule(unittest.TestCase):
    def test_undocumented_mutex_fires_at_declaration(self):
        findings, _ = lint("src/serve/bad_mutex.cpp")
        table = [f for f in findings if f.rule == "lock-table"]
        self.assertEqual([(f.path, f.line) for f in table],
                         [("src/serve/bad_mutex.cpp", 6)])
        self.assertIn("serve/bad_mutex.cpp::undocumented_",
                      table[0].message)

    def test_documented_mutex_is_quiet(self):
        findings, _ = lint("src/serve/good_mutex.cpp")
        self.assertEqual([f for f in findings if f.rule == "lock-table"], [])

    def test_partial_lint_never_reports_stale_entries(self):
        findings, _ = lint("src/serve/good_mutex.cpp")
        self.assertEqual(findings, [])

    def test_full_tree_lint_reports_stale_entries(self):
        findings, _ = nurd_lint.run(FIXTURES, None, None)
        stale = [f for f in findings
                 if f.rule == "lock-table" and "stale" in f.message]
        self.assertEqual([f.path for f in stale], ["src/common/sync.h"])
        self.assertIn("serve/gone.cpp::mutex_", stale[0].message)

    def test_commented_declaration_does_not_fire(self):
        findings, _ = lint("src/serve/bad_mutex.cpp")
        self.assertNotIn(10, {f.line for f in findings})


class Allowlist(unittest.TestCase):
    PATH = "src/core/allowlisted_access.cpp"

    def test_finding_reported_without_entry(self):
        findings, _ = lint(self.PATH)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "trace-access")

    def test_entry_suppresses_finding(self):
        findings, unused = lint(
            self.PATH,
            "trace-access src/core/allowlisted_access.cpp .store()"
            "  # refresh-grid read, test fixture\n")
        self.assertEqual(findings, [])
        self.assertEqual(unused, [])

    def test_token_scoping_is_respected(self):
        findings, unused = lint(
            self.PATH,
            "trace-access src/core/allowlisted_access.cpp .latencies()"
            "  # wrong token, must not suppress\n")
        self.assertEqual(len(findings), 1)
        self.assertEqual(len(unused), 1)  # and the entry reports as unused

    def test_unjustified_entry_rejected(self):
        with self.assertRaises(ValueError):
            nurd_lint.parse_allowlist(
                "trace-access src/core/allowlisted_access.cpp\n")


class RepoIsClean(unittest.TestCase):
    """The real src/ tree plus the checked-in allowlist must lint clean —
    this is the same invariant the CI leg enforces."""

    def test_src_lints_clean_with_checked_in_allowlist(self):
        root = os.path.dirname(SCRIPTS_DIR)
        allowlist = os.path.join(SCRIPTS_DIR, "nurd_lint_allowlist.txt")
        findings, unused = nurd_lint.run(root, allowlist, None)
        self.assertEqual([f.render() for f in findings], [])
        self.assertEqual([e.path for e in unused], [])


if __name__ == "__main__":
    unittest.main()
