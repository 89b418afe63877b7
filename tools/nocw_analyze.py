#!/usr/bin/env python3
"""The repo's source-rule checker: units, determinism, contracts, output
discipline and layering, over the C++ under src/ bench/ tests/ examples/.

Every rule is a `pass.rule` with a fixed scope (the path prefixes it checks)
and an allow-list (the one audited home of the banned construct):

  units        dimensional safety around src/util/units.hpp:
    .vocab         registry/time-series registration sites (set_counter,
                   add_counter, set_gauge, observe, append) whose unit
                   argument is a string literal must draw it from the closed
                   vocabulary in src/util/units_vocab.inc, the X-macro list
                   units.hpp and registry.cpp compile in;
    .raw-field     a float field in a src/ header whose name carries an
                   energy/power suffix (_j, _pj, _mw, _w, _joules, _watts)
                   must be a units:: quantity, not a bare double;
    .suffix        every other float field in src/power, src/noc and
                   src/accel headers carries a unit suffix or an explicitly
                   dimensionless one — the energy model multiplies these
                   fields straight into the Fig. 10 joules;
    .value-launder `a.value() + b.value()` launders two typed magnitudes
                   through raw arithmetic, skipping the dimension check.

  determinism  every result is bit-identical across runs and thread counts
               from one seed:
    .rng           rand()/srand()/std::random_device outside util/rng.hpp;
    .clock         wall-clock reads in library code (src/);
    .unordered     unordered containers in src/obs and src/eval, where
                   iteration order reaches serialized artifacts;
    .fault-hash    fault_hash() outside noc/fault.{cpp,hpp} and its unit
                   test; faults are sampled through FaultModel.

  contracts    run-time invariant discipline:
    .assert        naked assert() outside util/check.hpp (use NOCW_CHECK*);
    .scale-factor  a quantity constructed with an inline power-of-ten factor
                   (`Joules{x * 1e-12}`) outside units.hpp.

  output       where printing and result registration happen:
    .iostream      std::cout in library code (src/);
    .print         std::printf/std::cout in bench/ outside bench_util.cpp;
                   progress goes through obs::log(), tables through emit;
    .manifest      a bench/ file defining main() must call
                   bench::write_summary so the regression gate covers it.

  layering     primitives with exactly one audited caller:
    .route         dor_next_hop() outside noc/routing.{cpp,hpp} and
                   noc/router.cpp (src/): next hops come from the RouteTable;
    .engine        direct Network::step() calls outside noc/network.{cpp,hpp};
                   callers use run_until_drained()/advance_idle().

Comments and the contents of string and character literals are blanked
before any rule runs, so a rule name in prose or in a message never fires.

Suppression: a finding is dropped when its line, or the line above, carries
`// nocw-analyze: allow(<pass>)` or `allow(<pass>.<rule>)`. Suppress only
where the raw form is the correct one, and say why in the comment.

Usage:
  tools/nocw_analyze.py [--root DIR] [--json OUT]
  tools/nocw_analyze.py --self-test

Exit status: 0 clean, 1 findings (or self-test failure), 2 missing or empty
unit vocabulary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys
import tempfile

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2

SCAN_DIRS = ("src", "bench", "tests", "examples")
CXX_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
HEADER_SUFFIXES = (".hpp", ".h")
EVERYWHERE = tuple(f"{d}/" for d in SCAN_DIRS)
VOCAB_INC = "src/util/units_vocab.inc"
UNITS_HPP = "src/util/units.hpp"
BENCH_UTIL = "bench/bench_util.cpp"

ENERGY_SUFFIXES = ("_j", "_pj", "_mw", "_w", "_joules", "_watts")
UNIT_SUFFIXES = ("_pj", "_j", "_mw", "_w", "_ghz", "_hz", "_cycles",
                 "_seconds", "_s", "_bits", "_bytes", "_flits")
DIMENSIONLESS_SUFFIXES = ("_efficiency", "_ratio", "_scale", "_factor",
                          "_fraction", "_share", "_utilization",
                          "_probability")

SUPPRESS_RE = re.compile(r"//.*?nocw-analyze:\s*allow\(([\w.,\s-]+)\)")
NOCW_UNIT_RE = re.compile(r"^\s*NOCW_UNIT\((\w+)\)", re.M)
# Comments, string literals and character literals. A `'` right after a
# word character is a digit separator (1'000), not a literal.
LEXEME_RE = re.compile(r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\""
                       r"|(?<!\w)'(?:\\.|[^'\\\n])*'", re.S)
# A registration call whose second argument is a string literal: Registry
# (name, unit, value) and TimeSeriesSet::append (name, unit, cycle, value).
# The name argument runs to the first comma outside parentheses and may span
# lines or hold calls nested two deep (`join("a", b)`, whose comma is not
# the argument separator); the typed overloads take no string unit at all.
NAME_ARG = r"(?:[^,;()]|\((?:[^();]|\([^();]*\))*\))*?"
METRIC_CALL_RE = re.compile(
    r"\b(?:set_counter|add_counter|set_gauge|observe|append)\s*"
    rf"\(\s*{NAME_ARG},\s*\"([^\"]*)\"")
MAIN_RE = re.compile(r"^\s*int\s+main\s*\(", re.M)
WRITE_SUMMARY_RE = re.compile(r"\bwrite_summary\s*\(")


def alternation(words) -> str:
    return "|".join(map(re.escape, words))


def field_decl(name: str) -> re.Pattern:
    """A `double`/`float` field or namespace-scope declaration whose name,
    trailing underscores aside, matches `name`. Lines with a call in the
    initializer are not declarations of a plain field."""
    return re.compile(rf"^\s*(?:double|float)\s+{name}_*\s*(?:=[^;(]*)?;")


@dataclasses.dataclass(frozen=True)
class Rule:
    pass_name: str
    rule: str
    pattern: re.Pattern
    scope: tuple[str, ...]    # path prefixes the rule checks
    allowed: tuple[str, ...]  # the construct's audited homes
    message: str
    headers_only: bool = False

    def applies_to(self, rel: str) -> bool:
        return (rel.startswith(self.scope) and rel not in self.allowed
                and (not self.headers_only or rel.endswith(HEADER_SUFFIXES)))


LINE_RULES = (
    Rule("units", "raw-field",
         field_decl(rf"\w*(?:{alternation(ENERGY_SUFFIXES)})"),
         ("src/",), (), headers_only=True, message=(
             "float field carries an energy/power suffix but is not a "
             "units:: quantity; a bare double here is the pJ/J mix-up "
             "surface units.hpp closed")),
    Rule("units", "suffix",
         field_decl(rf"(?!(?:\w*(?:{alternation(UNIT_SUFFIXES)}|"
                    rf"{alternation(DIMENSIONLESS_SUFFIXES)})|cycles|seconds)"
                    rf"_*\b)\w+"),
         ("src/power/", "src/noc/", "src/accel/"), (), headers_only=True,
         message=(f"float field lacks a unit suffix "
                  f"({', '.join(UNIT_SUFFIXES)}; dimensionless: "
                  f"{', '.join(DIMENSIONLESS_SUFFIXES)})")),
    Rule("units", "value-launder",
         re.compile(r"\.value\(\)\s*[-+]\s*[\w.:>\[\]()-]*?\.value\(\)"),
         EVERYWHERE, (UNITS_HPP,), (
             "arithmetic between two .value() escapes skips the typed "
             "operators' dimension check; add/subtract the quantities "
             "themselves (or suppress where mixing is the intent)")),
    Rule("determinism", "rng",
         re.compile(r"\b(?:rand|srand)\s*\(|std::random_device"),
         EVERYWHERE, ("src/util/rng.hpp",), (
             "rand()/srand()/std::random_device outside util/rng.hpp "
             "breaks single-seed reproducibility")),
    Rule("determinism", "clock",
         re.compile(r"std::chrono::(?:steady_clock|system_clock|"
                    r"high_resolution_clock)"
                    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
                    r"|\bclock\s*\(\s*\)"),
         ("src/",), (), (
             "wall-clock read in library code; wall time belongs in bench "
             "drivers and must never feed simulation state")),
    Rule("determinism", "unordered",
         re.compile(r"std::unordered_(?:map|set|multimap|multiset)"),
         ("src/obs/", "src/eval/"), (), (
             "unordered container in an export/aggregation layer; "
             "iteration order reaches serialized artifacts — use std::map "
             "or a sorted vector")),
    Rule("determinism", "fault-hash", re.compile(r"\bfault_hash\s*\("),
         EVERYWHERE, ("src/noc/fault.cpp", "src/noc/fault.hpp",
                      "tests/noc/fault_test.cpp"), (
             "fault_hash() outside noc/fault.{cpp,hpp}; sample through "
             "FaultModel so fault experiments replay from one seed")),
    Rule("contracts", "assert", re.compile(r"\bassert\s*\("),
         EVERYWHERE, ("src/util/check.hpp",), (
             "naked assert(); use NOCW_CHECK* (always-on) or NOCW_DCHECK* "
             "(hot paths) from util/check.hpp")),
    Rule("contracts", "scale-factor",
         # A power-of-ten *factor* inside the constructor; a plain literal
         # magnitude (`Seconds{1e-6}`) is fine.
         re.compile(r"\b(?:Joules|Watts|Seconds|Picojoules|Milliwatts)\s*\{"
                    r"[^{}]*(?:[*/]\s*1e-?\d+|\b1e-?\d+\s*[*/])"),
         EVERYWHERE, (UNITS_HPP,), (
             "quantity constructed with an inline power-of-ten factor; "
             "scale changes go through the named conversions in units.hpp "
             "(to_joules, to_watts, seconds_at) so each factor exists in "
             "exactly one audited place")),
    Rule("output", "iostream", re.compile(r"std::cout"), ("src/",), (), (
        "std::cout in library code; printing belongs in bench/, examples/ "
        "or tools")),
    Rule("output", "print", re.compile(r"std::printf|std::cout"),
         ("bench/",), (BENCH_UTIL,), (
             "std::printf/std::cout in a bench driver; progress lines go "
             "through obs::log() (NOCW_QUIET-aware), tables through "
             "bench::emit")),
    Rule("layering", "route", re.compile(r"\bdor_next_hop\s*\("),
         ("src/",), ("src/noc/routing.cpp", "src/noc/routing.hpp",
                     "src/noc/router.cpp"), (
             "dor_next_hop() outside noc/routing (+ router.cpp); next hops "
             "come from the RouteTable so quarantined links/routers are "
             "honored everywhere")),
    Rule("layering", "engine",
         # Network::step() is the only zero-argument step() in the tree; the
         # member-access prefix skips definitions and free functions.
         re.compile(r"(?:\.|->)\s*step\s*\(\s*\)"),
         EVERYWHERE, ("src/noc/network.cpp", "src/noc/network.hpp"), (
             "direct step() call outside the NoC engine; drive the network "
             "with run_until_drained() / advance_idle() so the selected "
             "engine (event or dense) stays on the audited drain path")),
)
RULE_KEYS = frozenset({f"{r.pass_name}.{r.rule}" for r in LINE_RULES}
                      | {"units.vocab", "output.manifest"})


@dataclasses.dataclass
class Finding:
    file: str
    line: int
    pass_name: str
    rule: str
    message: str

    @property
    def key(self) -> str:
        return f"{self.pass_name}.{self.rule}"

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.key}] {self.message}"

    def as_json(self) -> dict:
        return {"file": self.file, "line": self.line,
                "pass": self.pass_name, "rule": self.rule,
                "message": self.message}


class VocabError(Exception):
    pass


def load_unit_vocab(root: pathlib.Path) -> frozenset[str]:
    """The closed unit vocabulary from src/util/units_vocab.inc under
    `root`. Without it units.vocab cannot run, so it is an error."""
    inc = root / VOCAB_INC
    try:
        units = frozenset(NOCW_UNIT_RE.findall(inc.read_text("utf-8")))
    except OSError as e:
        raise VocabError(f"cannot read unit vocabulary {inc}: {e}") from e
    if not units:
        raise VocabError(f"unit vocabulary {inc} has no NOCW_UNIT(...) line")
    return units


def strip_comments_and_literals(text: str) -> str:
    """Blank comments and the contents of string/char literals, keeping
    every offset (so a match position indexes the original text too)."""
    def blank(m: re.Match) -> str:
        s = m.group()
        if s[0] in "\"'":
            return s[0] + re.sub(r"[^\n]", " ", s[1:-1]) + s[-1]
        return re.sub(r"[^\n]", " ", s)
    return LEXEME_RE.sub(blank, text)


def suppressed(f: Finding, original_lines: list[str]) -> bool:
    for lineno in (f.line, f.line - 1):
        if not 1 <= lineno <= len(original_lines):
            continue
        m = SUPPRESS_RE.search(original_lines[lineno - 1])
        if m:
            keys = {k.strip() for k in m.group(1).split(",")}
            if f.pass_name in keys or f.key in keys:
                return True
    return False


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def analyze_file(rel: str, original: str,
                 vocab: frozenset[str]) -> list[Finding]:
    text = strip_comments_and_literals(original)
    findings: list[Finding] = []

    rules = [r for r in LINE_RULES if r.applies_to(rel)]
    for lineno, line in enumerate(text.splitlines(), start=1):
        findings.extend(Finding(rel, lineno, r.pass_name, r.rule, r.message)
                        for r in rules if r.pattern.search(line))

    for m in METRIC_CALL_RE.finditer(text):
        unit = original[m.start(1):m.end(1)]  # blanked in `text`
        if unit not in vocab:
            findings.append(Finding(
                rel, line_of(text, m.start()), "units", "vocab",
                f"unit '{unit}' is not in {VOCAB_INC}; the vocabulary is "
                f"closed so exported metrics stay comparable (or use the "
                f"typed overloads and no string at all)"))

    main = MAIN_RE.search(text)
    if (rel.startswith("bench/") and rel != BENCH_UTIL and main
            and not WRITE_SUMMARY_RE.search(text)):
        findings.append(Finding(
            rel, line_of(text, main.end()), "output", "manifest",
            "bench driver never calls bench::write_summary; every bench "
            "must register with BENCH_summary.json so the regression gate "
            "(tools/obs_diff.py) covers it"))

    lines = original.splitlines()
    return sorted((f for f in findings if not suppressed(f, lines)),
                  key=lambda f: f.line)


def analyze_tree(root: pathlib.Path) -> list[Finding]:
    vocab = load_unit_vocab(root)
    findings: list[Finding] = []
    for sub in SCAN_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix in CXX_SUFFIXES:
                findings.extend(analyze_file(
                    path.relative_to(root).as_posix(),
                    path.read_text(encoding="utf-8"), vocab))
    return findings


# ---------------------------------------------------------------------------
# Self-test: fixture path -> (content, the exact findings it must produce).
# Every rule fires on a seeded violation; every allow-listed home, comment,
# string and suppression stays quiet.
# ---------------------------------------------------------------------------

SELF_TEST_VOCAB = ("// fixture vocabulary\n"
                   "NOCW_UNIT(cycles)\nNOCW_UNIT(joules)\nNOCW_UNIT(flits)\n"
                   "NOCW_UNIT(count)\n")

SEEDED = {
    "src/obs/bad_vocab.cpp": (
        "void f(nocw::obs::Registry& r) {\n"
        '  r.set_gauge("x.energy", "femtojoules", 1.0);\n'
        "}\n", ["units.vocab"]),
    "src/obs/bad_vocab_call.cpp": (
        'void f(nocw::obs::Registry& r) {\n'
        '  r.set_gauge(prefix("x"), "femtojoules", 1.0);\n'
        "}\n", ["units.vocab"]),
    "src/obs/bad_vocab_comma.cpp": (
        'void f(nocw::obs::Registry& r, const char* b) {\n'
        '  r.set_gauge(join("a", b), "femtojoules", 1.0);\n'
        "}\n", ["units.vocab"]),
    "src/obs/bad_vocab_append.cpp": (
        "void f(nocw::obs::TimeSeriesSet& s) {\n"
        '  s.append("x.energy", "femtojoules", 1, 2.0);\n'
        "}\n", ["units.vocab"]),
    "src/power/bad_field.hpp": (
        "struct T {\n  double dynamic_j = 0.0;\n  double leak_mw;\n};\n",
        ["units.raw-field"] * 2),
    "src/power/bad_units.hpp": (
        "struct T {\n  double latency;\n  double energy = 0.0;\n};\n",
        ["units.suffix"] * 2),
    "src/accel/bad_launder.cpp": (
        "double f(nocw::units::Cycles a, nocw::units::Joules b) {\n"
        "  return a.value() + b.value();\n"
        "}\n", ["units.value-launder"]),
    "src/nn/bad_rng.cpp": (
        "int f() { return rand(); }\n", ["determinism.rng"]),
    "src/core/bad_rng2.cpp": (
        "#include <random>\nstd::random_device rd;\n", ["determinism.rng"]),
    "src/core/bad_clock.cpp": (
        "long f() { return std::chrono::steady_clock::now()"
        ".time_since_epoch().count(); }\n", ["determinism.clock"]),
    "src/obs/bad_unordered.hpp": (
        "struct E { std::unordered_map<int, double> by_id; };\n",
        ["determinism.unordered"]),
    "src/eval/bad_fault.cpp": (
        "unsigned long h() { return nocw::noc::fault_hash(1, 2, 3, 4); }\n",
        ["determinism.fault-hash"]),
    "src/noc/bad_assert.cpp": (
        "#include <cassert>\nvoid g(int x) { assert(x > 0); }\n",
        ["contracts.assert"]),
    "tests/obs/bad_test.cpp": (
        "void g(int x) { assert(x > 0); int y = rand(); }\n",
        ["contracts.assert", "determinism.rng"]),
    "src/power/bad_scale.cpp": (
        "nocw::units::Joules f(double pj) {\n"
        "  return nocw::units::Joules{pj * 1e-12};\n"
        "}\n", ["contracts.scale-factor"]),
    "src/eval/bad_print.cpp": (
        "void p(char c) { if (c == '\"') std::cout << '\"'; }\n",
        ["output.iostream"]),
    "bench/bad_progress.cpp": (
        'void p() { std::printf("working...\\n"); }\n', ["output.print"]),
    "bench/bad_manifest.cpp": (
        "int main(int, char** argv) {\n"
        "  (void)nocw::bench::output_dir(argv[0]);\n"
        "  return 0;\n"
        "}\n", ["output.manifest"]),
    "src/accel/bad_route.cpp": (
        "int hop(const nocw::noc::NocConfig& c) {\n"
        "  return nocw::noc::dor_next_hop(c, 0, 15);\n"
        "}\n", ["layering.route"]),
    "src/eval/bad_step.cpp": (
        "void drain(nocw::noc::Network& net) {\n"
        "  while (!net.drained()) net.step();\n"
        "}\n", ["layering.engine"]),
    "tests/noc/bad_step_test.cpp": (
        "void tick(nocw::noc::Network* net) { net->step(); }\n",
        ["layering.engine"]),
}

CLEAN = {
    # The allow-listed homes, each holding the construct it is home to.
    "src/util/rng.hpp":
        "inline int raw() { return rand(); }\n",
    "src/util/check.hpp":
        "#define NOCW_DCHECK(c) assert(c)\n",
    "src/util/units.hpp":
        "inline Joules to_joules(Picojoules p) { return Joules{p.value() "
        "* 1e-12}; }\n"
        "inline double sum(Joules a, Joules b) { return a.value() + "
        "b.value(); }\n",
    "src/noc/fault.cpp":
        "unsigned long use() { return fault_hash(1, 2, 3, 4); }\n",
    "tests/noc/fault_test.cpp":
        "TEST(Fault, Hash) { EXPECT_NE(fault_hash(1, 2, 3, 4), 0u); }\n",
    "src/noc/router.cpp":
        "int fallback(const NocConfig& c, int id, int dst) {\n"
        "  return dor_next_hop(c, id, dst);\n"
        "}\n",
    "src/noc/network.cpp":
        "void Network::run() { while (!drained()) step(); this->step(); }\n",
    "bench/bench_util.cpp":
        'void emit() { std::printf("== table ==\\n"); }\n'
        "int main() { return 0; }\n",
    # Clean code elsewhere.
    "src/obs/good_vocab.cpp":
        "void f(nocw::obs::Registry& r, double v) {\n"
        '  r.set_gauge("x.energy", "joules", 1.0);\n'
        '  r.observe(base + "packet_latency",\n'
        '            "cycles", v);\n'
        '  r.set_counter(prefix("x"), "count", 3);\n'
        "}\n",
    "src/obs/good_vocab_comment.cpp":
        '// r.set_gauge("x", "femtojoules", 1.0);\n',
    "src/util/good_string.cpp":
        'const char* msg = "use std::cout and rand() carefully";\n'
        "const long big = 1'000; const char* q = \"'rand()\";\n",
    "src/util/good_comment.cpp":
        "// rand() and assert( and std::chrono::steady_clock in a comment\n"
        "/* std::cout, fault_hash(, net.step() in a block comment */\n"
        "static_assert(sizeof(int) == 4);\n",
    "src/power/good_field.hpp":
        "struct U {\n"
        "  nocw::units::Joules dynamic_j;\n"
        "  double read_energy_pj_per_bit_scale = 1.0;\n"
        "  double clock_ghz = 1.0;\n"
        "  double memory_cycles = 0.0;\n"
        "  double dram_efficiency = 0.7;\n"
        "  double flip_probability_ = 0.0;\n"
        "  double seconds = 0.0;\n"
        "};\n",
    "src/accel/good_typed.cpp":
        "nocw::units::Cycles f(nocw::units::Cycles a, "
        "nocw::units::Cycles b) {\n"
        "  return a + b;\n"
        "}\n"
        "double g(nocw::units::Flits x) { return x.value() + 1.0; }\n"
        "double h() {\n"  # locals in a .cpp are not header fields
        "  double total = 0.0;\n"
        "  double energy_j = total;\n"
        "  return energy_j;\n"
        "}\n",
    "src/accel/suppressed_launder.cpp":
        "double f(nocw::units::Flits a, nocw::units::Words b) {\n"
        "  // flit+word sum is a dimensionless event count here\n"
        "  // nocw-analyze: allow(units.value-launder)\n"
        "  return a.value() + b.value();\n"
        "}\n",
    "src/eval/suppressed_print.cpp":
        "void dump() {\n"
        "  std::cout << 1;  // nocw-analyze: allow(output)\n"
        "}\n",
    "bench/good_clock.cpp":
        "long wall_ms() { return std::chrono::steady_clock::now()"
        ".time_since_epoch().count(); }\n",
    "bench/good_progress.cpp":
        "void p(std::FILE* f) {\n"
        '  nocw::obs::log("working...\\n");\n'
        '  std::fprintf(f, "{}\\n");\n'
        "}\n",
    "bench/good_manifest.cpp":
        "int main(int, char** argv) {\n"
        "  const std::string dir = nocw::bench::output_dir(argv[0]);\n"
        '  nocw::bench::write_summary(dir, "good", {{"x", 1.0}});\n'
        "  return 0;\n"
        "}\n",
    "tests/noc/good_step_test.cpp":
        "void drain(nocw::noc::Network& net) {\n"
        "  net.run_until_drained(1000);\n"
        "  (void)net.stats().step_cycles;\n"
        "}\n",
    "src/eval/good_route_comment.cpp":
        "// dor_next_hop() in a comment is fine; the RouteTable is the API\n"
        "int hops(int distance) { return distance; }\n",
}


def self_test() -> int:
    expected = {rel: sorted(keys) for rel, (_, keys) in SEEDED.items()}
    expected.update({rel: [] for rel in CLEAN})
    failures = []
    unseeded = RULE_KEYS - {k for keys in expected.values() for k in keys}
    if unseeded:
        failures.append(f"rules without a seeded fixture: {sorted(unseeded)}")

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        files = {VOCAB_INC: SELF_TEST_VOCAB, **CLEAN,
                 **{rel: content for rel, (content, _) in SEEDED.items()}}
        for rel, content in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(content, encoding="utf-8")
        findings = analyze_tree(root)
        for rel, keys in expected.items():
            got = sorted(f.key for f in findings if f.file == rel)
            if got != keys:
                failures.append(f"{rel}: expected {keys}, got {got}")

        for vocab in ("// no units\n", None):
            inc = root / VOCAB_INC
            if vocab is None:
                inc.unlink()
            else:
                inc.write_text(vocab, encoding="utf-8")
            try:
                analyze_tree(root)
                failures.append(f"vocabulary {vocab!r} was not rejected")
            except VocabError:
                pass

    if failures:
        print("nocw_analyze self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return EXIT_FINDINGS
    print(f"nocw_analyze self-test passed: all {len(RULE_KEYS)} rules fire "
          f"({len(findings)} seeded findings), {len(CLEAN)} clean fixtures "
          f"quiet, missing/empty vocabulary rejected")
    return EXIT_CLEAN


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    ap.add_argument("--json", type=pathlib.Path,
                    help="write machine-readable findings here")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    try:
        findings = analyze_tree(args.root.resolve())
    except VocabError as e:
        print(f"nocw_analyze: {e}")
        return EXIT_INTERNAL

    for f in findings:
        print(f.render())
    if args.json:
        payload = {"schema": "nocw.analyze.v1",
                   "findings": [f.as_json() for f in findings]}
        args.json.write_text(json.dumps(payload, indent=2) + "\n",
                             encoding="utf-8")
    if findings:
        print(f"nocw_analyze: {len(findings)} finding(s)")
        return EXIT_FINDINGS
    print("nocw_analyze: clean")
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
