#!/usr/bin/env python3
"""Selftests for bfsx-analyze.

Three layers:

  * corpus — every fixture under selftest/ is scanned by its owning
    pass and the found rule multiset must EXACTLY match the
    ``// EXPECT(rule)`` markers: every rule proves it can fire, and the
    fixtures' documented-safe idioms prove they stay silent.
  * engine — suppressions, baseline partition/drift, fingerprint
    stability under line drift, layer-config validation.
  * driver — the CLI's exit-code contract (0 clean / 1 findings /
    2 config error / 3 baseline drift) and SARIF emission, exercised
    as real subprocesses.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import engine  # noqa: E402
import sarif  # noqa: E402
from passes import all_passes, known_rules  # noqa: E402
from passes.layering import ConfigError, LayerConfig  # noqa: E402

REPO = os.path.dirname(os.path.dirname(HERE))
SELFTEST = os.path.join(HERE, "selftest")
DRIVER = os.path.join(HERE, "bfsx_analyze.py")

# EXPECT(rule) or EXPECT(rule: text), where text must appear in the
# message of a finding of that rule.
EXPECT_RE = re.compile(r"EXPECT\(([\w-]+)(?::\s*([^)]+))?\)")


def expected_rules(text: str) -> list[str]:
    return sorted(m.group(1) for m in EXPECT_RE.finditer(text))
REL_RE = re.compile(r"//\s*REL:\s*(\S+)")

PASSES = {p.name: p for p in all_passes()}


def load_fixture(path: str) -> engine.SourceFile:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    m = REL_RE.search(text)
    rel = m.group(1) if m else f"src/bfs/{os.path.basename(path)}"
    return engine.load_source(path, rel)


def run_pass(pass_name: str, sf: engine.SourceFile) -> list[engine.Finding]:
    cfg = LayerConfig.load(os.path.join(HERE, "layers.toml"))
    ctx = engine.PassContext(repo=REPO, files=[sf], config=cfg,
                             backend_name="tokens")
    return PASSES[pass_name].run(ctx)


class CorpusTest(unittest.TestCase):
    """Every planted violation is found; nothing else fires."""

    def _check_fixture(self, pass_name: str, path: str) -> None:
        sf = load_fixture(path)
        expected = expected_rules(sf.text)
        self.assertTrue(expected,
                        f"{path}: fixture declares no EXPECT markers")
        findings = run_pass(pass_name, sf)
        found = sorted(f.rule for f in findings)
        self.assertEqual(
            expected, found,
            f"{path}: expected {expected}, pass found {found}")
        for m in EXPECT_RE.finditer(sf.text):
            rule, quoted = m.groups()
            if quoted:
                self.assertTrue(
                    any(f.rule == rule and quoted in f.message
                        for f in findings),
                    f"{path}: no {rule} finding mentions {quoted!r}")

    def test_corpus(self):
        pass_dirs = [d for d in sorted(os.listdir(SELFTEST))
                     if os.path.isdir(os.path.join(SELFTEST, d))
                     and d in PASSES]
        self.assertGreaterEqual(len(pass_dirs), 4)
        for d in pass_dirs:
            for name in sorted(os.listdir(os.path.join(SELFTEST, d))):
                if not name.endswith(engine.SOURCE_SUFFIXES):
                    continue
                with self.subTest(pass_name=d, fixture=name):
                    self._check_fixture(
                        d, os.path.join(SELFTEST, d, name))

    def test_omp_findings_sit_on_their_pragma(self):
        # A finding names the pragma it judges: that is the line an
        # allow() annotation must sit above to suppress it.
        omp_dir = os.path.join(SELFTEST, "omp")
        for name in sorted(os.listdir(omp_dir)):
            sf = load_fixture(os.path.join(omp_dir, name))
            lines = sf.text.split("\n")
            for f in run_pass("omp", sf):
                with self.subTest(fixture=name, line=f.line):
                    self.assertTrue(
                        lines[f.line - 1].startswith("#pragma omp"),
                        lines[f.line - 1])

    def test_every_rule_has_a_fixture(self):
        covered: set[str] = set()
        for d in sorted(os.listdir(SELFTEST)):
            full = os.path.join(SELFTEST, d)
            if not os.path.isdir(full):
                continue
            for name in os.listdir(full):
                if name.endswith(engine.SOURCE_SUFFIXES):
                    with open(os.path.join(full, name),
                              encoding="utf-8") as f:
                        covered.update(expected_rules(f.read()))
        missing = known_rules() - covered - {"missing-tu"}
        self.assertFalse(
            missing,
            f"rules with no seeded-violation fixture: {sorted(missing)}")

    def test_framework_bad_suppression_fixture(self):
        path = os.path.join(SELFTEST, "framework", "bad_suppression.cc")
        sf = load_fixture(path)
        expected = expected_rules(sf.text)
        _, _, ann = engine.apply_suppressions(
            [], {sf.rel: sf}, known_rules())
        self.assertEqual(expected, sorted(f.rule for f in ann))


class EngineTest(unittest.TestCase):
    def _source(self, text: str, rel: str = "src/bfs/x.cc"):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".cc", delete=False) as f:
            f.write(text)
            path = f.name
        self.addCleanup(os.unlink, path)
        return engine.load_source(path, rel)

    def test_reasoned_suppression_suppresses(self):
        sf = self._source(
            "#include <atomic>\n"
            "std::atomic<int> g{0};\n"
            "// analyze: allow(seq-cst-default) cold one-shot init flag;\n"
            "// contention is impossible by construction\n"
            "void f() { g.store(1); }\n")
        findings = run_pass("atomics", sf)
        self.assertEqual(["seq-cst-default"], [f.rule for f in findings])
        kept, suppressed, ann = engine.apply_suppressions(
            findings, {sf.rel: sf}, known_rules())
        self.assertEqual([], kept)
        self.assertEqual(1, len(suppressed))
        self.assertEqual([], ann)

    def test_reasonless_suppression_does_not_suppress(self):
        sf = self._source(
            "#include <atomic>\n"
            "std::atomic<int> g{0};\n"
            "// analyze: allow(seq-cst-default)\n"
            "void f() { g.store(1); }\n")
        findings = run_pass("atomics", sf)
        kept, suppressed, ann = engine.apply_suppressions(
            findings, {sf.rel: sf}, known_rules())
        self.assertEqual(["seq-cst-default"], [f.rule for f in kept])
        self.assertEqual([], suppressed)
        self.assertEqual(["bad-suppression"], [f.rule for f in ann])

    def test_suppression_window(self):
        # An annotation further than SUPPRESS_WINDOW lines above the
        # finding must not apply.
        filler = "int a%d = 0;\n"
        sf = self._source(
            "#include <atomic>\n"
            "std::atomic<int> g{0};\n"
            "// analyze: allow(seq-cst-default) too far away to count\n"
            + "".join(filler % i for i in range(engine.SUPPRESS_WINDOW + 1))
            + "void f() { g.store(1); }\n")
        findings = run_pass("atomics", sf)
        kept, suppressed, _ = engine.apply_suppressions(
            findings, {sf.rel: sf}, known_rules())
        self.assertEqual(1, len(kept))
        self.assertEqual([], suppressed)

    def test_fingerprint_survives_line_drift(self):
        a = engine.Finding("atomics", "seq-cst-default", "src/x.cc", 10,
                           "m", snippet="  g.store(1);")
        b = engine.Finding("atomics", "seq-cst-default", "src/x.cc", 99,
                           "m", snippet="\tg.store(1);  ")
        self.assertEqual(a.fingerprint, b.fingerprint)
        c = engine.Finding("atomics", "seq-cst-default", "src/y.cc", 10,
                           "m", snippet="  g.store(1);")
        self.assertNotEqual(a.fingerprint, c.fingerprint)

    def test_baseline_partition_and_drift(self):
        f1 = engine.Finding("atomics", "seq-cst-default", "src/x.cc", 1,
                            "m", snippet="g.store(1);")
        f2 = engine.Finding("lifecycle", "raw-unpin", "src/y.cc", 2,
                            "m", snippet="e->unpin(k);")
        bl = engine.Baseline(path="<mem>", entries=[
            {"rule": f1.rule, "path": f1.path,
             "fingerprint": f1.fingerprint},
            {"rule": "manual-lock", "path": "src/gone.cc",
             "fingerprint": "0" * 16},
        ])
        new, old, stale = bl.partition([f1, f2])
        self.assertEqual([f2], new)
        self.assertEqual([f1], old)
        self.assertEqual(1, len(stale))
        self.assertEqual("src/gone.cc", stale[0]["path"])

    def test_layer_config_rejects_cycle(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".toml", delete=False) as f:
            f.write('[layers.a]\ndeps = ["b"]\n'
                    '[layers.b]\ndeps = ["a"]\n')
            path = f.name
        self.addCleanup(os.unlink, path)
        with self.assertRaises(ConfigError):
            LayerConfig.load(path)

    def test_layer_config_rejects_unknown_dep(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".toml", delete=False) as f:
            f.write('[layers.a]\ndeps = ["ghost"]\n')
            path = f.name
        self.addCleanup(os.unlink, path)
        with self.assertRaises(ConfigError):
            LayerConfig.load(path)

    def test_repo_layer_config_is_valid(self):
        cfg = LayerConfig.load(os.path.join(HERE, "layers.toml"))
        self.assertIn("serve", cfg.layers)
        self.assertEqual("cli", cfg.layer_of("src/tools/bfsx_cli.cpp"))
        self.assertTrue(cfg.allowed("serve", "graph500"))
        self.assertFalse(cfg.allowed("obs", "bfs"))


class SarifTest(unittest.TestCase):
    def _report(self):
        f = engine.Finding("atomics", "seq-cst-default", "src/x.cc", 3,
                           "m", snippet="g.store(1);")
        s = engine.Finding("lifecycle", "raw-unpin", "src/y.cc", 7,
                           "m", snippet="e->unpin(k);")
        return engine.AnalysisReport(
            new_findings=[f], suppressed=[s], baselined=[],
            stale_baseline=[], files_scanned=2, backend_name="tokens",
            passes_run=["atomics", "lifecycle"])

    def _catalog(self):
        cat = {"bad-suppression": "x", "missing-tu": "x"}
        for p in all_passes():
            cat.update(p.rules)
        return cat

    def test_build_validates(self):
        doc = sarif.build(self._report(), self._catalog(),
                          {("raw-unpin", "src/y.cc", 7): "blessed caller"})
        self.assertEqual([], sarif.validate(doc))
        results = doc["runs"][0]["results"]
        self.assertEqual(2, len(results))
        by_rule = {r["ruleId"]: r for r in results}
        self.assertEqual("new", by_rule["seq-cst-default"]["baselineState"])
        self.assertEqual(
            "blessed caller",
            by_rule["raw-unpin"]["suppressions"][0]["justification"])
        self.assertIn(sarif.FINGERPRINT_KEY,
                      by_rule["seq-cst-default"]["partialFingerprints"])

    def test_validate_catches_breakage(self):
        doc = sarif.build(self._report(), self._catalog())
        doc["version"] = "2.0.0"
        doc["runs"][0]["results"][0]["ruleId"] = "unknown-rule"
        del doc["runs"][0]["results"][1]["message"]
        doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]["startLine"] = 0
        problems = sarif.validate(doc)
        self.assertGreaterEqual(len(problems), 4)


class DriverTest(unittest.TestCase):
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, DRIVER, *args],
            capture_output=True, text=True)

    def test_exit_1_on_findings(self):
        r = self._run("--no-baseline", "--passes", "atomics",
                      os.path.join(SELFTEST, "atomics", "bad_seq_cst.cc"))
        self.assertEqual(1, r.returncode, r.stdout + r.stderr)
        self.assertIn("seq-cst-default", r.stdout)

    def test_exit_0_on_clean(self):
        r = self._run("--no-baseline", "--passes", "atomics",
                      os.path.join(SELFTEST, "omp", "bad_shared_write.cc"))
        self.assertEqual(0, r.returncode, r.stdout + r.stderr)

    def test_exit_2_on_unknown_pass(self):
        r = self._run("--passes", "nonsense")
        self.assertEqual(2, r.returncode)
        self.assertIn("unknown pass", r.stderr)

    def test_exit_3_on_stale_baseline(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump({"version": 1, "entries": [
                {"rule": "seq-cst-default", "path": "src/gone.cc",
                 "fingerprint": "f" * 16}]}, f)
            path = f.name
        self.addCleanup(os.unlink, path)
        r = self._run("--baseline", path, "--passes", "atomics",
                      os.path.join(SELFTEST, "omp", "bad_shared_write.cc"))
        self.assertEqual(3, r.returncode, r.stdout + r.stderr)
        self.assertIn("stale", r.stdout)

    def test_write_baseline_roundtrip(self):
        with tempfile.NamedTemporaryFile(suffix=".json",
                                         delete=False) as f:
            path = f.name
        self.addCleanup(os.unlink, path)
        fixture = os.path.join(SELFTEST, "atomics", "bad_seq_cst.cc")
        r = self._run("--baseline", path, "--write-baseline",
                      "--passes", "atomics", fixture)
        self.assertEqual(0, r.returncode, r.stdout + r.stderr)
        r = self._run("--baseline", path, "--passes", "atomics", fixture)
        self.assertEqual(0, r.returncode, r.stdout + r.stderr)
        self.assertIn("3 baselined", r.stdout)

    def test_sarif_output(self):
        with tempfile.NamedTemporaryFile(suffix=".sarif",
                                         delete=False) as f:
            path = f.name
        self.addCleanup(os.unlink, path)
        r = self._run("--no-baseline", "--passes", "atomics",
                      "--sarif", path,
                      os.path.join(SELFTEST, "atomics", "bad_seq_cst.cc"))
        self.assertEqual(1, r.returncode, r.stdout + r.stderr)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual([], sarif.validate(doc))
        self.assertEqual(
            3, len(doc["runs"][0]["results"]))

    def test_list_rules(self):
        r = self._run("--list-rules")
        self.assertEqual(0, r.returncode)
        for rule in ("layering-violation", "seq-cst-default", "raw-unpin",
                     "nested-chunking", "shared-write", "bad-suppression"):
            self.assertIn(rule, r.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
