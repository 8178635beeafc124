"""Ablation: q-gram filter composition (length / count / position).

Paper Section 5.2 stacks three filters before the UDF.  This bench
measures the survivor count of each filter prefix over the performance
catalog — showing each filter earns its place — and the per-pair cost of
full vs banded dynamic programming (the other half of the speedup).
"""

import time

from repro.core.sources import filter_tokens
from repro.matching.editdist import edit_distance, edit_distance_within
from repro.matching.qgrams import (
    count_filter_threshold,
    matching_qgram_pairs,
    positional_qgrams,
)
from repro.evaluation.report import format_table

from conftest import SELECT_QUERIES, save_result


def test_ablation_filter_composition(benchmark, perf_catalog):
    catalog = perf_catalog
    config = catalog.config
    query = SELECT_QUERIES[0]
    query_phonemes = catalog.matcher.registry.transform(query, "english")
    query_tokens = filter_tokens(query_phonemes, config)
    k = config.max_operations(len(query_tokens))
    q = config.q
    query_grams = positional_qgrams(query_tokens, q)

    total = 0
    after_length = 0
    after_count = 0
    after_position = 0
    matches = 0
    costs = catalog.matcher.costs
    for record in catalog.records():
        total += 1
        tokens = filter_tokens(catalog.phonemes_of(record.id), config)
        if abs(len(tokens) - len(query_tokens)) > k:
            continue
        after_length += 1
        needed = count_filter_threshold(
            len(query_tokens), len(tokens), k, q
        )
        pairs_loose = matching_qgram_pairs(
            query_grams, positional_qgrams(tokens, q), 10 ** 9
        )
        if needed > 0 and pairs_loose < needed:
            continue
        after_count += 1
        pairs_tight = matching_qgram_pairs(
            query_grams, positional_qgrams(tokens, q), k
        )
        if needed > 0 and pairs_tight < needed:
            continue
        after_position += 1
        phonemes = catalog.phonemes_of(record.id)
        budget = config.threshold * min(
            len(query_phonemes), len(phonemes)
        )
        if (
            edit_distance_within(query_phonemes, phonemes, budget, costs)
            is not None
        ):
            matches += 1

    rows = [
        ["(none: full scan)", str(total)],
        ["+ length filter", str(after_length)],
        ["+ count filter", str(after_count)],
        ["+ position filter", str(after_position)],
        ["(true matches)", str(matches)],
    ]
    text = format_table(
        ["filters applied", "surviving candidates"],
        rows,
        title=f"Ablation — filter composition for query {query!r} "
        f"(k={k}, q={q})",
    )

    # Per-pair DP cost: full (Figure 8 verbatim) vs banded.
    sample = [catalog.phonemes_of(r.id) for r in catalog.records()[:300]]
    start = time.perf_counter()
    for phonemes in sample:
        edit_distance(query_phonemes, phonemes, costs)
    full_dp = time.perf_counter() - start
    start = time.perf_counter()
    for phonemes in sample:
        budget = config.threshold * min(len(query_phonemes), len(phonemes))
        edit_distance_within(query_phonemes, phonemes, budget, costs)
    banded_dp = time.perf_counter() - start
    text += (
        f"\n\nper-pair UDF cost over {len(sample)} rows: "
        f"full DP {full_dp * 1e3:.1f} ms, banded DP {banded_dp * 1e3:.1f} ms "
        f"({full_dp / max(banded_dp, 1e-9):.1f}x)"
    )
    save_result("ablation_filters.txt", text)

    # Every filter stage must strictly help on this workload, and the
    # survivors must include every true match (soundness).
    assert after_length < total
    assert after_count <= after_length
    assert after_position <= after_count
    assert matches <= after_position
    assert banded_dp < full_dp

    benchmark.pedantic(
        lambda: [
            edit_distance_within(
                query_phonemes,
                phonemes,
                config.threshold
                * min(len(query_phonemes), len(phonemes)),
                costs,
            )
            for phonemes in sample
        ],
        rounds=3,
        iterations=1,
    )
