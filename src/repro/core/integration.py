"""Installing LexEQUAL into a minidb database as a UDF.

This reproduces the paper's deployment: "we have currently implemented
LexEQUAL as a user-defined function (UDF) that can be called in SQL
statements".  After :func:`install_lexequal`, the SQL of paper Figures 3
and 5 runs verbatim::

    select Author, Title from Books
    where Author LexEQUAL 'Nehru' Threshold 0.25
    inlanguages { english, hindi, tamil, greek }

because the parser lowers the ``LexEQUAL`` predicate to the registered
``lexequal`` UDF.  The helper UDFs (``ipa_of``, ``language_of``,
``gpsid_of``, ``lexequal_ipa``) expose the building blocks so that the
auxiliary-table SQL of Figures 14 and 15 can also be written directly.
"""

from __future__ import annotations

from repro import degrade, obs
from repro.core.matcher import LexEqualMatcher
from repro.core.operator import MatchOutcome
from repro.errors import TTPError
from repro.minidb.catalog import Database
from repro.minidb.values import LangText
from repro.phonetics.keys import grouped_key


def install_lexequal(
    db: Database, matcher: LexEqualMatcher | None = None
) -> LexEqualMatcher:
    """Register the LexEQUAL UDF family on ``db``; returns the matcher.

    UDFs installed:

    ``lexequal(left, right, threshold[, languages_csv])``
        The paper's operator on *text* operands:
        :meth:`LexEqualMatcher.match`, with ``languages_csv`` the
        comma-separated ``INLANGUAGES`` set.  Language tags come from
        :class:`~repro.minidb.values.LangText` values or script
        detection.  Returns True/False, or SQL NULL for a NULL operand
        and for the NORESOURCE outcome (unknown, in three-valued
        logic).

    ``lexequal_ipa(left_ipa, right_ipa, threshold)``
        The operator on precomputed IPA strings — what the auxiliary
        q-gram/phonetic-index queries call, as in Figures 14/15 where
        ``LexEQUAL(N.PName, Q.str, e)`` runs over the ``PName`` column.

    ``ipa_of(text[, language])``, ``language_of(text)``,
    ``plen_of(text[, language])``, ``gpsid_of(text[, language])``
        Transformation helpers for building auxiliary columns in SQL.
    """
    matcher = matcher or LexEqualMatcher()

    def lexequal(left, right, threshold=None, languages_csv=""):
        obs.incr("udf.lexequal.calls")
        if left is None or right is None:
            return None
        try:
            outcome = matcher.match(left, right, threshold, languages_csv)
        except TTPError as exc:
            # Transient conversion failure.  Under a serving-layer
            # degradation context the row degrades to NULL (unknown,
            # like NORESOURCE) and the failing language is reported;
            # library callers keep the strict raising behaviour.
            if not degrade.record(getattr(exc, "language", None)):
                raise
            obs.incr("udf.lexequal.degraded")
            return None
        if outcome is MatchOutcome.NORESOURCE:
            obs.incr("udf.lexequal.noresource")
            return None  # NORESOURCE -> SQL NULL (unknown)
        return outcome is MatchOutcome.TRUE

    def lexequal_ipa(left_ipa, right_ipa, threshold=None):
        obs.incr("udf.lexequal_ipa.calls")
        if left_ipa is None or right_ipa is None:
            return None
        return matcher.ipa_match(str(left_ipa), str(right_ipa), threshold)

    def language_of(text):
        return None if text is None else matcher.language_of(text)

    def of_phonemes(fn):
        """A helper UDF: ``fn`` of an operand's phoneme string, NULL for
        a NULL operand or a failed conversion."""

        def udf(text, language=None):
            if text is None:
                return None
            try:
                if language is None:
                    phonemes = matcher.phonemes(text)
                else:
                    phonemes = matcher.registry.transform(
                        str(text), str(language)
                    )
            except TTPError:
                return None
            return fn(phonemes)

        return udf

    db.register_udf("lexequal", lexequal)
    db.register_udf("lexequal_ipa", lexequal_ipa)
    db.register_udf("ipa_of", of_phonemes("".join))
    db.register_udf("language_of", language_of)
    db.register_udf("plen_of", of_phonemes(len))
    db.register_udf(
        "gpsid_of",
        of_phonemes(lambda p: grouped_key(p, matcher.config.clustering)),
    )
    return matcher


def populate_books_demo(db: Database) -> None:
    """Create and fill the Books.com table of paper Figure 1 on ``db``.

    Shared between the in-memory demo catalog and ``lexequal init``
    (which seeds the same rows into a durable data directory).
    """
    from repro.minidb.schema import Column
    from repro.minidb.values import SqlType

    db.create_table(
        "books",
        [
            Column("author", SqlType.LANGTEXT),
            Column("title", SqlType.TEXT),
            Column("price", SqlType.REAL),
            Column("language", SqlType.TEXT),
        ],
    )
    rows = [
        (
            LangText("Nehru", "english"),
            "Discovery of India",
            9.95,
            "english",
        ),
        (LangText("नेहरु", "hindi"), "भारत एक खोज", 175.0, "hindi"),
        (LangText("நேரு", "tamil"), "ஆசிய ஜோதி", 250.0, "tamil"),
        (LangText("Nero", "english"), "The Coronation", 99.0, "english"),
        (LangText("René", "french"), "Les Méditations", 49.0, "french"),
        (LangText("Σαρρη", "greek"), "Παιχνίδια στο Πιάνο", 15.5, "greek"),
    ]
    for row in rows:
        db.insert("books", row)


def demo_books_db(
    accelerate: str = "qgram",
    matcher: LexEqualMatcher | None = None,
    workers: int | None = None,
) -> Database:
    """The Books.com catalog of paper Figure 1, LexEQUAL installed.

    The shared demo database behind ``lexequal query``/``stats`` and the
    query server's default service.  ``accelerate`` picks the phonetic
    accelerator on ``books.author``: ``"qgram"`` (default), ``"index"``,
    ``"parallel"`` (sharded executor, sized by ``workers``), ``"auto"``
    (cost-based per-query choice from ANALYZE statistics), or ``"none"``
    for plain UDF evaluation.
    """
    from repro import faults

    # Bootstrap runs with failpoints suppressed: a REPRO_FAULTS chaos
    # schedule must break *queries* against this catalog, not the
    # catalog (or its phonetic index) coming up in the first place.
    with faults.suppressed():
        db = Database()
        matcher = matcher or LexEqualMatcher()
        install_lexequal(db, matcher)
        populate_books_demo(db)
        if accelerate != "none":
            from repro.core.engine import create_phonetic_accelerator

            create_phonetic_accelerator(
                db, "books", "author", matcher,
                method=accelerate, workers=workers,
            )
            if accelerate == "auto":
                db.analyze()  # cost-based choice wants fresh stats
    return db
