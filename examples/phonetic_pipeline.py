"""A tour of the phonetic substrate underneath LexEQUAL.

Shows each stage the operator composes: text-to-phoneme conversion per
script, folding onto the matching alphabet, phoneme clustering, the
clustered edit distance, q-grams and the grouped phonetic key — the
ontology of paper Figure 6 made concrete.

Run:  python examples/phonetic_pipeline.py
"""

from repro.core import MatchConfig
from repro.matching.editdist import edit_distance, edit_distance_within
from repro.matching.qgrams import positional_qgrams
from repro.phonetics.clusters import auto_clustering, default_clustering
from repro.phonetics.keys import grouped_key, grouped_key_string, soundex
from repro.ttp.registry import default_registry, transform

registry = default_registry()

# --- 1. Text -> phonemes, per script ------------------------------------
print("1. Text-to-Phoneme conversion (paper Figure 9 style):")
SAMPLES = [
    ("University", "english"),
    ("नेहरु", "hindi"),
    ("நேரு", "tamil"),
    ("École", "french"),
    ("Νερου", "greek"),
    ("Español", "spanish"),
]
for text, language in SAMPLES:
    raw = registry.converter_for(language).to_phonemes(text)
    folded = transform(text, language)
    print(
        f"  {text:12s} ({language:8s}) raw /{''.join(raw)}/ "
        f"-> folded /{''.join(folded)}/"
    )

# --- 2. Phoneme clusters (Soundex extended to phoneme space) ------------
print("\n2. Default phoneme clustering:")
clustering = default_clustering()
for symbol in ("p", "t", "tʃ", "m", "r", "a", "i"):
    members = clustering.members(clustering.cluster_id(symbol))
    print(f"  cluster of /{symbol}/: {' '.join(members[:12])}")

print("\n   ... and one derived automatically from feature similarity:")
auto = auto_clustering(0.8, symbols=("p", "b", "t", "d", "m", "n", "a", "e"))
print(f"  auto-clusters: p~b: {auto.same_cluster('p', 'b')}, "
      f"p~m: {auto.same_cluster('p', 'm')}")

# --- 3. The clustered edit distance -------------------------------------
print("\n3. Clustered edit distance (paper Figure 8):")
config = MatchConfig()
costs = config.cost_model()
nehru_en = transform("Nehru", "english")
nehru_hi = transform("नेहरु", "hindi")
print(f"  /{''.join(nehru_en)}/ vs /{''.join(nehru_hi)}/")
print(f"  distance = {edit_distance(nehru_en, nehru_hi, costs)}")
print(f"  budget   = {config.budget(len(nehru_en), len(nehru_hi))}")
within = edit_distance_within(
    nehru_en, nehru_hi, config.budget(len(nehru_en), len(nehru_hi)), costs
)
print(f"  banded DP within the budget: {within}")

# --- 4. Positional q-grams (the Table 2 filters) ------------------------
print("\n4. Positional q-grams of the query (paper footnote 4):")
for gram in positional_qgrams(nehru_en, 2):
    print(f"  ({gram.pos}, {''.join(gram.gram)})", end="")
print()

# --- 5. Phonetic keys (the Table 3 index) -------------------------------
print("\n5. Grouped phoneme string identifiers (paper §5.3):")
for text, language in [("Nehru", "english"), ("नेहरु", "hindi"),
                       ("நேரு", "tamil"), ("Nero", "english")]:
    phonemes = transform(text, language)
    print(
        f"  {text:8s} key={grouped_key(phonemes, clustering):>8} "
        f"({grouped_key_string(phonemes, clustering)})"
    )
print("\n   classical Soundex, for comparison:")
for name in ("Nehru", "Nero", "Robert", "Rupert"):
    print(f"  {name:8s} -> {soundex(name)}")
