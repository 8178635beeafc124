"""The LexEQUAL operator — the paper's primary contribution.

* :mod:`repro.core.config` — :class:`MatchConfig`, the tunable knobs
  (user match threshold, intra-cluster substitution cost, clustering,
  q-gram length);
* :mod:`repro.core.operator` — the three-valued LexEQUAL comparison of
  paper Figure 8;
* :mod:`repro.core.matcher` — :class:`LexEqualMatcher`, the cached,
  configured façade used by applications and by the database strategies;
* :mod:`repro.core.sources` — the candidate sources (q-gram postings,
  grouped phoneme key) and the one verifier;
* :mod:`repro.core.strategies` — the naive UDF, q-gram filter and
  phonetic index execution strategies over a
  :class:`NameCatalog`;
* :mod:`repro.core.integration` — installing LexEQUAL into a
  :class:`repro.minidb.Database` as a UDF so the paper's SQL (Figures 3,
  5, 14, 15) runs verbatim.
"""

from repro.core.config import MatchConfig
from repro.core.operator import MatchOutcome, lex_equal
from repro.core.matcher import LexEqualMatcher, MatchExplanation
from repro.core.strategies import (
    ExactStrategy,
    NameCatalog,
    NameRecord,
    NaiveUdfStrategy,
    QGramStrategy,
    PhoneticIndexStrategy,
)
from repro.core.integration import install_lexequal
from repro.core.engine import (
    PhoneticAccelerator,
    create_phonetic_accelerator,
)

__all__ = [
    "MatchConfig",
    "MatchOutcome",
    "lex_equal",
    "LexEqualMatcher",
    "MatchExplanation",
    "NameCatalog",
    "NameRecord",
    "ExactStrategy",
    "NaiveUdfStrategy",
    "QGramStrategy",
    "PhoneticIndexStrategy",
    "install_lexequal",
    "PhoneticAccelerator",
    "create_phonetic_accelerator",
]
