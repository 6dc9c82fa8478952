#!/usr/bin/env python3
"""Self-test for tools/determinism_lint.py against tests/lint_fixtures/.

Proves each lint rule fires on its known-bad fixture, that clean code and
allowlisted findings pass, and that the allowlist stays strict (mandatory
justifications, stale entries rejected). Written as unittest so it runs with
the stdlib alone (`python3 tests/lint_selftest.py`, ctest `lint_selftest`)
and is equally discoverable by pytest where available.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "tools", "determinism_lint.py")
FIXTURES = "tests/lint_fixtures"
FIXTURE_ALLOW = os.path.join(REPO_ROOT, FIXTURES, "fixture_allow.txt")
EMPTY_ALLOW = os.devnull


def run_lint(paths, allowlist=EMPTY_ALLOW, root=REPO_ROOT):
    """Returns (exit_code, stdout) of the lint over root-relative paths."""
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, "--allowlist", allowlist, *paths],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


class RuleFiresOnFixture(unittest.TestCase):
    """Each rule must catch its fixture (with no allowlist in play)."""

    def assert_rule(self, fixture, rule, min_hits=1):
        code, out = run_lint([f"{FIXTURES}/{fixture}"])
        self.assertEqual(code, 1, f"lint should fail on {fixture}:\n{out}")
        hits = [line for line in out.splitlines() if f"[{rule}]" in line]
        self.assertGreaterEqual(
            len(hits), min_hits,
            f"expected >= {min_hits} {rule} finding(s) in {fixture}:\n{out}")
        for hit in hits:
            self.assertIn(fixture, hit)

    def test_unordered_iteration_into_output(self):
        self.assert_rule("bad_unordered_output.cc", "BR-UNORDERED-OUTPUT", min_hits=2)

    def test_wall_clock(self):
        self.assert_rule("bad_wall_clock.cc", "BR-WALL-CLOCK", min_hits=2)

    def test_unseeded_rng(self):
        self.assert_rule("bad_unseeded_rng.cc", "BR-UNSEEDED-RNG", min_hits=2)

    def test_pointer_sort_key(self):
        self.assert_rule("bad_pointer_order.cc", "BR-POINTER-ORDER", min_hits=3)

    def test_float_accumulation_order(self):
        self.assert_rule("bad_float_order.cc", "BR-FLOAT-ORDER", min_hits=2)


class HiddenEnvUnderSrc(unittest.TestCase):
    """BR-HIDDEN-ENV fires on the fixture once it sits under src/, and no
    allowlist entry can suppress it."""

    def lint_as_src(self, allow_entries=None):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src"))
            shutil.copy(os.path.join(REPO_ROOT, FIXTURES, "bad_hidden_env.cc"),
                        os.path.join(root, "src"))
            allowlist = EMPTY_ALLOW
            if allow_entries:
                allowlist = os.path.join(root, "allow.txt")
                with open(allowlist, "w", encoding="utf-8") as f:
                    f.write("\n".join(allow_entries) + "\n")
            return run_lint(["src/bad_hidden_env.cc"], allowlist=allowlist, root=root)

    def test_fires_under_src(self):
        code, out = self.lint_as_src()
        self.assertEqual(code, 1, out)
        hits = [line for line in out.splitlines() if "[BR-HIDDEN-ENV]" in line]
        # getenv, secure_getenv and 2x environ, all after 1'000'000'000L.
        self.assertGreaterEqual(len(hits), 4, out)

    def test_cannot_be_allowlisted(self):
        code, out = self.lint_as_src(
            ["BR-HIDDEN-ENV | src/bad_hidden_env.cc | * | A written reason that "
             "must still not suppress an environment read."])
        self.assertEqual(code, 1, out)
        self.assertIn("BR-HIDDEN-ENV cannot be allowlisted", out)
        self.assertIn("[BR-HIDDEN-ENV]", out)

    def test_only_src_is_scoped(self):
        code, out = run_lint([f"{FIXTURES}/bad_hidden_env.cc"])
        self.assertNotIn("[BR-HIDDEN-ENV]", out)


class CleanAndSuppressed(unittest.TestCase):
    def test_clean_fixture_passes(self):
        code, out = run_lint([f"{FIXTURES}/clean.cc"])
        self.assertEqual(code, 0, f"clean fixture must not be flagged:\n{out}")

    def test_allowlisted_fixture_is_suppressed(self):
        # Without the allowlist the shim is a finding...
        code, out = run_lint([f"{FIXTURES}/suppressed_wall_clock.cc"])
        self.assertEqual(code, 1)
        self.assertIn("[BR-WALL-CLOCK]", out)
        # ...and with it, the file is clean.
        code, out = run_lint([f"{FIXTURES}/suppressed_wall_clock.cc"],
                             allowlist=FIXTURE_ALLOW)
        self.assertEqual(code, 0, f"allowlist entry must suppress the shim:\n{out}")


class AllowlistStrictness(unittest.TestCase):
    def run_with_entries(self, entries, paths):
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
            f.write("\n".join(entries) + "\n")
            path = f.name
        try:
            return run_lint(paths, allowlist=path)
        finally:
            os.unlink(path)

    def test_justification_is_mandatory(self):
        code, out = self.run_with_entries(
            ["BR-WALL-CLOCK | tests/lint_fixtures/suppressed_wall_clock.cc | steady_clock | no"],
            [f"{FIXTURES}/suppressed_wall_clock.cc"],
        )
        self.assertEqual(code, 1)
        self.assertIn("justification", out)

    def test_stale_entry_fails(self):
        code, out = self.run_with_entries(
            ["BR-WALL-CLOCK | tests/lint_fixtures/clean.cc | * | Entry matching "
             "nothing at all must be reported as stale."],
            [f"{FIXTURES}/clean.cc"],
        )
        self.assertEqual(code, 1)
        self.assertIn("stale allowlist entry", out)


class WholeTreeGate(unittest.TestCase):
    def test_src_and_tools_are_clean_with_checked_in_allowlist(self):
        """The same invocation ctest `lint_determinism` gates on."""
        proc = subprocess.run([sys.executable, LINT, "--root", REPO_ROOT],
                              capture_output=True, text=True, check=False)
        self.assertEqual(
            proc.returncode, 0,
            f"src/ + tools/ must lint clean:\n{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
