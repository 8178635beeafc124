"""Data/contract analyzers: phonetic tables, clusterings, cost metrics.

These rules check the *domain data* the matcher is built on — the IPA
literals inside every TTP rule table, the phoneme-cluster partition, the
metric axioms of the cost models, rule-table reachability, and each
converter's coverage of its script's codepoint range.  A typo in any of
these tables silently degrades match quality (or, for an asymmetric cost
model, makes a pair's verdict depend on its order), which is exactly the
class of bug ordinary linters cannot see.
"""

from __future__ import annotations

import ast
import unicodedata
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.analysis.base import AnalysisContext, Rule
from repro.analysis.findings import Finding
from repro.errors import PhonemeError, ReproError

# ------------------------------------------------------------ LEX-D001


@dataclass(frozen=True)
class TableSpec:
    """One module-level table whose entries carry IPA literals.

    ``kind`` selects how IPA strings are pulled out of the literal:

    * ``"values"`` — dict mapping graphemes to IPA strings;
    * ``"pair_values"`` — dict mapping graphemes to tuples of IPA
      strings (Tamil's positional plosive values);
    * ``"rule_ipa"`` — NRL rule rows ``(left, fragment, right, ipa)``,
      the fourth column is the IPA output;
    * ``"symbols"`` — a flat collection of inventory symbols;
    * ``"symbol_groups"`` — nested groups of inventory symbols (the
      cluster table).
    """

    file: str
    attr: str
    kind: str = "values"


#: Every shipped table holding IPA output literals or inventory symbols.
DEFAULT_TABLES: tuple[TableSpec, ...] = (
    TableSpec("src/repro/ttp/hindi.py", "_CONSONANTS"),
    TableSpec("src/repro/ttp/hindi.py", "_VOWELS"),
    TableSpec("src/repro/ttp/hindi.py", "_MATRAS"),
    TableSpec("src/repro/ttp/kannada.py", "_CONSONANTS"),
    TableSpec("src/repro/ttp/kannada.py", "_VOWELS"),
    TableSpec("src/repro/ttp/kannada.py", "_MATRAS"),
    TableSpec("src/repro/ttp/tamil.py", "_PLOSIVES", "pair_values"),
    TableSpec("src/repro/ttp/tamil.py", "_FIXED"),
    TableSpec("src/repro/ttp/tamil.py", "_VOWELS"),
    TableSpec("src/repro/ttp/tamil.py", "_MATRAS"),
    TableSpec("src/repro/ttp/arabic.py", "_CONSONANTS"),
    TableSpec("src/repro/ttp/arabic.py", "_TANWIN"),
    TableSpec("src/repro/ttp/greek.py", "_DIGRAPHS"),
    TableSpec("src/repro/ttp/greek.py", "_SINGLES"),
    TableSpec("src/repro/ttp/english.py", "_RULES", "rule_ipa"),
    TableSpec("src/repro/ttp/english.py", "_EXCEPTIONS"),
    TableSpec("src/repro/ttp/french.py", "_RULES", "rule_ipa"),
    TableSpec("src/repro/ttp/spanish.py", "_RULES", "rule_ipa"),
    TableSpec("src/repro/matching/costs.py", "WEAK_PHONEMES", "symbols"),
    TableSpec(
        "src/repro/phonetics/clusters.py",
        "_DEFAULT_CLUSTERS",
        "symbol_groups",
    ),
)


def _iter_ipa(spec: TableSpec, value) -> Iterable[str]:
    """IPA strings (or inventory symbols) contained in a table literal."""
    if spec.kind == "values":
        yield from value.values()
    elif spec.kind == "pair_values":
        for pair in value.values():
            yield from pair
    elif spec.kind == "rule_ipa":
        for row in value:
            if isinstance(row, tuple) and len(row) == 4:
                yield row[3]
    elif spec.kind == "symbols":
        yield from value
    elif spec.kind == "symbol_groups":
        for group in value:
            yield from group
    else:  # pragma: no cover - manifest typo
        raise ValueError(f"unknown table kind {spec.kind!r}")


class IpaLiterals(Rule):
    """Every IPA literal in every phonetic table parses against the
    phoneme inventory."""

    rule_id = "LEX-D001"
    name = "ipa-literals"
    description = (
        "IPA output literals in TTP tables, rule tables and cost tables "
        "must tokenize into inventory phonemes"
    )

    def __init__(self, tables: tuple[TableSpec, ...] = DEFAULT_TABLES):
        self.tables = tables

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        from repro.phonetics.inventory import is_known_symbol
        from repro.phonetics.parse import parse_ipa

        for spec in self.tables:
            value = ctx.literal(spec.file, spec.attr)
            if value is None:
                yield self.finding(
                    spec.file,
                    1,
                    f"table {spec.attr} not found or not a literal",
                )
                continue
            for ipa in _iter_ipa(spec, value):
                if not isinstance(ipa, str):
                    yield self.finding(
                        spec.file,
                        ctx.assignment_line(spec.file, spec.attr),
                        f"{spec.attr}: non-string entry {ipa!r}",
                    )
                    continue
                if spec.kind in ("symbols", "symbol_groups"):
                    if not is_known_symbol(ipa):
                        yield self.finding(
                            spec.file,
                            ctx.literal_line(spec.file, spec.attr, ipa),
                            f"{spec.attr}: {ipa!r} is not an inventory "
                            "phoneme symbol",
                        )
                    continue
                try:
                    parse_ipa(ipa)
                except PhonemeError as exc:
                    yield self.finding(
                        spec.file,
                        ctx.literal_line(spec.file, spec.attr, ipa),
                        f"{spec.attr}: bad IPA literal {ipa!r}: {exc}",
                    )


# ------------------------------------------------------------ LEX-D002


class ClusterPartition(Rule):
    """The phoneme-cluster table forms a proper partition."""

    rule_id = "LEX-D002"
    name = "cluster-partition"
    description = (
        "cluster groups must be non-empty, disjoint, made of inventory "
        "symbols, and modifier variants must cluster with their base"
    )

    def __init__(
        self,
        file: str = "src/repro/phonetics/clusters.py",
        attr: str = "_DEFAULT_CLUSTERS",
        *,
        check_default: bool = True,
    ):
        self.file = file
        self.attr = attr
        #: Also verify the live default clustering's variant invariant
        #: (only meaningful when pointed at the real clusters module).
        self.check_default = check_default

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        from repro.phonetics.inventory import INVENTORY, is_known_symbol

        groups = ctx.literal(self.file, self.attr)
        if groups is None:
            yield self.finding(
                self.file,
                1,
                f"cluster table {self.attr} not found or not a literal",
            )
            return
        seen: dict[str, int] = {}
        for index, group in enumerate(groups):
            if not group:
                yield self.finding(
                    self.file,
                    ctx.assignment_line(self.file, self.attr),
                    f"{self.attr}: cluster #{index} is empty",
                )
                continue
            for sym in group:
                if not isinstance(sym, str) or not is_known_symbol(sym):
                    yield self.finding(
                        self.file,
                        ctx.literal_line(self.file, self.attr, sym),
                        f"{self.attr}: cluster #{index} contains "
                        f"non-inventory symbol {sym!r}",
                    )
                    continue
                if sym in seen:
                    yield self.finding(
                        self.file,
                        ctx.literal_line(self.file, self.attr, sym),
                        f"{self.attr}: phoneme {sym!r} appears in both "
                        f"cluster #{seen[sym]} and cluster #{index} — "
                        "not a partition",
                    )
                    continue
                seen[sym] = index
        if not self.check_default:
            return
        # Variant invariant of the live clustering: length, nasalization
        # and aspiration variants must share their base phoneme's cluster
        # (this is what lets Hindi /d̪ʱ/ match English /d/ cheaply).
        from repro.phonetics.clusters import default_clustering
        from repro.phonetics.inventory import base_symbol

        clustering = default_clustering()
        anchor = ctx.assignment_line(self.file, self.attr)
        for sym in sorted(INVENTORY):
            try:
                base = base_symbol(sym)
            except PhonemeError:  # pragma: no cover - inventory invariant
                continue
            if base != sym and not clustering.same_cluster(sym, base):
                yield self.finding(
                    self.file,
                    anchor,
                    f"default clustering separates {sym!r} from its "
                    f"base phoneme {base!r}",
                )


# ------------------------------------------------------------ LEX-D003


class MetricAxioms(Rule):
    """The shipped cost models satisfy the metric axioms exhaustively."""

    rule_id = "LEX-D003"
    name = "metric-axioms"
    description = (
        "shipped cost models must satisfy positivity, identity, symmetry "
        "and the triangle inequality over the full phoneme inventory"
    )

    def __init__(
        self,
        models: list[tuple[str, object]] | None = None,
        file: str = "src/repro/matching/costs.py",
        symbols: tuple[str, ...] | None = None,
        max_report: int = 5,
    ):
        self._models = models
        self.file = file
        self.symbols = symbols
        self.max_report = max_report

    def models(self) -> list[tuple[str, object]]:
        if self._models is not None:
            return self._models
        from repro.matching.costs import UNIT_COST, ClusteredCost

        return [
            ("ClusteredCost(default)", ClusteredCost()),
            ("LevenshteinCost", UNIT_COST),
        ]

    def _class_line(self, ctx: AnalysisContext, model: object) -> int:
        try:
            tree = ctx.tree(self.file)
        except (OSError, SyntaxError):
            return 1
        for node in tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name == type(model).__name__
            ):
                return node.lineno
        return 1

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        from repro.matching.metric import check_metric_axioms

        for label, model in self.models():
            violations = check_metric_axioms(model, self.symbols)
            line = self._class_line(ctx, model)
            for violation in violations[: self.max_report]:
                yield self.finding(
                    self.file, line, f"{label}: {violation}"
                )
            extra = len(violations) - self.max_report
            if extra > 0:
                yield self.finding(
                    self.file,
                    line,
                    f"{label}: {extra} further metric violation(s) "
                    "suppressed",
                )


# ------------------------------------------------------------ LEX-D004

#: NRL rule tables checked for shadowed/unreachable rules.
DEFAULT_RULE_TABLES: tuple[tuple[str, str], ...] = (
    ("src/repro/ttp/english.py", "_RULES"),
    ("src/repro/ttp/spanish.py", "_RULES"),
    ("src/repro/ttp/french.py", "_RULES"),
)


class TtpShadowing(Rule):
    """No rule in an NRL rule table is shadowed by an earlier rule."""

    rule_id = "LEX-D004"
    name = "ttp-shadowing"
    description = (
        "NRL rule groups are first-match-wins: a rule is dead if an "
        "earlier rule of its group always matches first"
    )

    def __init__(
        self, tables: tuple[tuple[str, str], ...] = DEFAULT_RULE_TABLES
    ):
        self.tables = tables

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for file, attr in self.tables:
            rows = ctx.tuple_lines(file, attr)
            if not rows:
                yield self.finding(
                    file, 1, f"rule table {attr} not found or empty"
                )
                continue
            groups: dict[str, list[tuple[tuple, int]]] = {}
            for values, line in rows:
                if len(values) != 4 or not all(
                    isinstance(v, str) for v in values
                ):
                    yield self.finding(
                        file, line, f"{attr}: malformed rule row {values!r}"
                    )
                    continue
                if not values[1]:
                    yield self.finding(
                        file, line, f"{attr}: rule with empty fragment"
                    )
                    continue
                groups.setdefault(values[1][0], []).append((values, line))
            for group in groups.values():
                for i, (rule, line) in enumerate(group):
                    left, fragment, right, _ = rule
                    for earlier, earlier_line in (g for g in group[:i]):
                        e_left, e_fragment, e_right, _ = earlier
                        if (e_left, e_fragment, e_right) == (
                            left,
                            fragment,
                            right,
                        ):
                            yield self.finding(
                                file,
                                line,
                                f"{attr}: rule ({left!r}, {fragment!r}, "
                                f"{right!r}) duplicates the rule at line "
                                f"{earlier_line} and can never fire",
                            )
                            break
                        if (
                            e_left == ""
                            and e_right == ""
                            and fragment.startswith(e_fragment)
                        ):
                            yield self.finding(
                                file,
                                line,
                                f"{attr}: rule ({left!r}, {fragment!r}, "
                                f"{right!r}) is unreachable — the "
                                f"unconditional rule for {e_fragment!r} "
                                f"at line {earlier_line} always matches "
                                "first",
                            )
                            break


# ------------------------------------------------------------ LEX-D005


@dataclass(frozen=True)
class ScriptSpec:
    """Declared codepoint coverage of one converter.

    ``ranges`` holds ``(start, end, template)`` triples: every assigned
    codepoint in ``[start, end]`` must convert when substituted for the
    ``{}`` in ``template`` (dependent signs need a carrier consonant).
    """

    language: str
    file: str
    ranges: tuple[tuple[int, int, str], ...] = field(default_factory=tuple)


_LATIN = ((0x61, 0x7A, "{}"),)

#: Declared script coverage per shipped converter.  Arabic deliberately
#: excludes U+063B–063F (non-classical extension letters the converter
#: does not claim) and the Indic ranges exclude digits/punctuation.
DEFAULT_SCRIPTS: tuple[ScriptSpec, ...] = (
    ScriptSpec("english", "src/repro/ttp/english.py", _LATIN),
    ScriptSpec("spanish", "src/repro/ttp/spanish.py", _LATIN),
    ScriptSpec("french", "src/repro/ttp/french.py", _LATIN),
    ScriptSpec(
        "hindi",
        "src/repro/ttp/hindi.py",
        (
            (0x0905, 0x0914, "{}"),   # independent vowels
            (0x0915, 0x0939, "{}"),   # consonants
            (0x093E, 0x094C, "क{}"),  # matras on a carrier
            (0x0901, 0x0903, "का{}"),  # candrabindu/anusvara/visarga
            (0x093C, 0x093C, "क{}"),  # nukta
            (0x094D, 0x094D, "क{}"),  # virama
            (0x0950, 0x0950, "{}"),   # om
        ),
    ),
    ScriptSpec(
        "tamil",
        "src/repro/ttp/tamil.py",
        (
            (0x0B85, 0x0B94, "{}"),   # independent vowels
            (0x0B95, 0x0BB9, "{}"),   # consonants (incl. Grantha)
            (0x0BBE, 0x0BCC, "க{}"),  # matras on a carrier
            (0x0BCD, 0x0BCD, "க{}"),  # pulli
            (0x0B83, 0x0B83, "{}"),   # aytham
        ),
    ),
    ScriptSpec(
        "kannada",
        "src/repro/ttp/kannada.py",
        (
            (0x0C85, 0x0C94, "{}"),   # independent vowels
            (0x0C95, 0x0CB9, "{}"),   # consonants
            (0x0CBE, 0x0CCC, "ಕ{}"),  # matras on a carrier
            (0x0CCD, 0x0CCD, "ಕ{}"),  # virama
            (0x0C82, 0x0C83, "ಕ{}"),  # anusvara/visarga
        ),
    ),
    ScriptSpec(
        "greek",
        "src/repro/ttp/greek.py",
        ((0x03B1, 0x03C9, "{}"),),    # lowercase alpha..omega
    ),
    ScriptSpec(
        "arabic",
        "src/repro/ttp/arabic.py",
        (
            (0x0621, 0x063A, "{}"),   # hamza..ghain
            (0x0641, 0x064A, "{}"),   # feh..yeh
            (0x064B, 0x0652, "ن{}"),  # harakat on a carrier
        ),
    ),
)

#: Cap on per-language findings so one broken table stays readable.
_MAX_PER_LANGUAGE = 10


class ScriptCoverage(Rule):
    """Each converter actually converts its declared codepoint ranges."""

    rule_id = "LEX-D005"
    name = "script-coverage"
    description = (
        "every assigned codepoint of a converter's declared script "
        "ranges must survive a real conversion"
    )

    def __init__(self, scripts: tuple[ScriptSpec, ...] = DEFAULT_SCRIPTS):
        self.scripts = scripts

    def _anchor(self, ctx: AnalysisContext, file: str) -> int:
        try:
            tree = ctx.tree(file)
        except (OSError, SyntaxError):
            return 1
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        return classes[0].lineno if len(classes) == 1 else 1

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        from repro.ttp.registry import default_registry

        registry = default_registry()
        for spec in self.scripts:
            try:
                converter = registry.converter_for(spec.language)
            except ReproError as exc:
                yield self.finding(
                    spec.file, 1, f"{spec.language}: no converter: {exc}"
                )
                continue
            anchor = self._anchor(ctx, spec.file)
            reported = 0
            skipped = 0
            for start, end, template in spec.ranges:
                for codepoint in range(start, end + 1):
                    ch = chr(codepoint)
                    if unicodedata.category(ch) == "Cn":
                        continue  # unassigned codepoint
                    sample = template.replace("{}", ch)
                    try:
                        converter.to_phonemes(sample)
                    except ReproError as exc:
                        if reported >= _MAX_PER_LANGUAGE:
                            skipped += 1
                            continue
                        reported += 1
                        yield self.finding(
                            spec.file,
                            anchor,
                            f"{spec.language}: U+{codepoint:04X} {ch!r} "
                            f"does not convert (as {sample!r}): {exc}",
                        )
            if skipped:
                yield self.finding(
                    spec.file,
                    anchor,
                    f"{spec.language}: {skipped} further uncovered "
                    "codepoint(s) suppressed",
                )
