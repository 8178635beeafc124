"""English grapheme-to-phoneme conversion.

A full NRL-style letter-to-sound rule set (Elovitz et al. 1976), adapted
to emit IPA inventory symbols, plus a small exceptions lexicon for names
whose conventional pronunciation the rules cannot derive.  The paper used
the Oxford English Dictionary and on-line TTP converters for this step;
rule-based conversion is the standard self-contained substitute and
produces the same *kind* of output (a phonemically plausible IPA string
per name, with systematic — not random — deviations).

English r is transcribed ``ɹ``; diphthongs are emitted as two-symbol
sequences (``eɪ`` → ``e ɪ``), which keeps phonemic lengths in the range
the paper reports (average 7.16 vs lexicographic 7.35 on the quality
lexicon).
"""

from __future__ import annotations

from repro.errors import TTPError
from repro.phonetics.parse import PhonemeString, parse_ipa
from repro.ttp.base import TTPConverter, parse_table
from repro.ttp.normalize import normalize_latin
from repro.ttp.rules import apply_rules, compile_rules

# The rule table.  Format: (left context, fragment, right context, IPA).
# Order matters within each first-letter group; the last rule of each
# group is the unconditional fallback.
_RULES: list[tuple[str, str, str, str]] = [
    # ------------------------------------------------------------- A
    (" ", "a", " ", "ə"),
    (" ", "are", " ", "ɑɹ"),
    (" ", "ar", "o", "əɹ"),
    ("", "ar", "#", "ɛɹ"),
    ("^", "as", "#", "eɪs"),
    ("", "ah", " ", "ɑ"),
    ("", "a", "wa", "ə"),
    ("", "aw", "", "ɔ"),
    (" :", "any", "", "ɛni"),
    ("", "a", "^+#", "eɪ"),
    ("#:", "ally", "", "əli"),
    (" ", "al", "#", "əl"),
    ("", "again", "", "əgɛn"),
    ("#:", "ag", "e", "ɪdʒ"),
    ("", "a", "^+:#", "æ"),
    (" :", "a", "^+ ", "eɪ"),
    ("", "a", "^%", "eɪ"),
    (" ", "arr", "", "əɹ"),
    ("", "arr", "", "æɹ"),
    (" :", "ar", " ", "ɑɹ"),
    ("", "ar", " ", "ɜɹ"),
    ("", "ar", "", "ɑɹ"),
    ("", "air", "", "ɛɹ"),
    ("", "ai", "", "eɪ"),
    ("", "ay", "", "eɪ"),
    ("", "au", "", "ɔ"),
    ("#:", "al", " ", "əl"),
    ("#:", "als", " ", "əlz"),
    ("", "alk", "", "ɔk"),
    ("", "al", "^", "ɔl"),
    (" :", "able", "", "eɪbəl"),
    ("", "able", "", "əbəl"),
    ("", "ang", "+", "eɪndʒ"),
    ("", "a", "", "æ"),
    # ------------------------------------------------------------- B
    ("", "bb", "", "b"),
    (" ", "be", "^#", "bɪ"),
    ("", "being", "", "biɪŋ"),
    (" ", "both", " ", "boʊθ"),
    (" ", "bus", "#", "bɪz"),
    ("", "buil", "", "bɪl"),
    ("", "b", "", "b"),
    # ------------------------------------------------------------- C
    (" ", "ch", "^", "k"),
    ("^e", "ch", "", "k"),
    ("", "ch", "", "tʃ"),
    (" s", "ci", "#", "saɪ"),
    ("", "ci", "a", "ʃ"),
    ("", "ci", "o", "ʃ"),
    ("", "ci", "en", "ʃ"),
    ("", "c", "+", "s"),
    ("", "ck", "", "k"),
    ("", "com", "%", "kʌm"),
    ("", "c", "", "k"),
    # ------------------------------------------------------------- D
    ("", "dd", "", "d"),
    ("#:", "ded", " ", "dɪd"),
    (".e", "d", " ", "d"),
    ("#:^e", "d", " ", "t"),
    (" ", "de", "^#", "dɪ"),
    (" ", "do", " ", "du"),
    (" ", "does", "", "dʌz"),
    (" ", "doing", "", "duɪŋ"),
    (" ", "dow", "", "daʊ"),
    ("", "du", "a", "dʒu"),
    ("", "d", "", "d"),
    # ------------------------------------------------------------- E
    ("#:", "e", " ", ""),
    (" :^", "e", " ", ""),
    (" :", "e", " ", "i"),
    ("#", "ed", " ", "d"),
    ("#:", "e", "d ", ""),
    ("", "ev", "er", "ɛv"),
    ("", "e", "^%", "i"),
    ("", "eri", "#", "iɹi"),
    ("", "eri", "", "ɛɹɪ"),
    ("#:", "er", "#", "ɜɹ"),
    ("", "er", "#", "ɛɹ"),
    ("", "er", "", "ɜɹ"),
    (" ", "even", "", "ivɛn"),
    ("#:", "e", "w", ""),
    ("@", "ew", "", "u"),
    ("", "ew", "", "ju"),
    ("", "e", "o", "i"),
    ("#:&", "es", " ", "ɪz"),
    ("#:", "e", "s ", ""),
    ("#:", "ely", " ", "li"),
    ("#:", "ement", "", "mɛnt"),
    ("", "eful", "", "fʊl"),
    ("", "ee", "", "i"),
    ("", "earn", "", "ɜɹn"),
    (" ", "ear", "^", "ɜɹ"),
    ("", "ead", "", "ɛd"),
    ("#:", "ea", " ", "iə"),
    ("", "ea", "su", "ɛ"),
    ("", "ea", "", "i"),
    ("", "eigh", "", "eɪ"),
    ("", "ei", "", "i"),
    (" ", "eye", "", "aɪ"),
    ("", "ey", "", "i"),
    ("", "eu", "", "ju"),
    ("", "e", "", "ɛ"),
    # ------------------------------------------------------------- F
    ("", "ff", "", "f"),
    ("", "ful", "", "fʊl"),
    ("", "f", "", "f"),
    # ------------------------------------------------------------- G
    ("", "giv", "", "gɪv"),
    (" ", "g", "i^", "g"),
    ("", "ge", "t", "gɛ"),
    ("su", "gges", "", "gdʒɛs"),
    ("", "gg", "", "g"),
    (" b#", "g", "", "g"),
    ("", "g", "+", "dʒ"),
    ("", "great", "", "gɹeɪt"),
    ("#", "gh", "", ""),
    ("", "g", "", "g"),
    # ------------------------------------------------------------- H
    (" b", "h", "", ""),
    (" d", "h", "", ""),
    (" g", "h", "", ""),
    (" j", "h", "", ""),
    (" k", "h", "", ""),
    (" ", "hav", "", "hæv"),
    (" ", "here", "", "hiɹ"),
    (" ", "hour", "", "aʊɜɹ"),
    ("", "how", "", "haʊ"),
    ("", "h", "#", "h"),
    ("", "h", "", ""),
    # ------------------------------------------------------------- I
    (" ", "in", "", "ɪn"),
    (" ", "i", " ", "aɪ"),
    ("", "in", "d", "aɪn"),
    ("", "ier", "", "iɜɹ"),
    ("#:r", "ied", "", "id"),
    ("", "ied", " ", "aɪd"),
    ("", "ien", "", "iɛn"),
    ("", "ie", "t", "aɪɛ"),
    (" :", "i", "%", "aɪ"),
    ("", "i", "%", "i"),
    ("", "ie", "", "i"),
    ("", "i", "^+:#", "ɪ"),
    ("", "ir", "#", "aɪɹ"),
    ("", "iz", "%", "aɪz"),
    ("", "is", "%", "aɪz"),
    ("", "i", "d%", "aɪ"),
    ("+^", "i", "^+", "ɪ"),
    ("", "i", "t%", "aɪ"),
    ("#:^", "i", "^+", "ɪ"),
    ("", "i", "^+", "aɪ"),
    ("", "ir", "", "ɜɹ"),
    ("", "igh", "", "aɪ"),
    ("", "ild", "", "aɪld"),
    ("", "ign", " ", "aɪn"),
    ("", "ign", "^", "aɪn"),
    ("", "ign", "%", "aɪn"),
    ("", "ique", "", "ik"),
    ("", "i", "", "ɪ"),
    # ------------------------------------------------------------- J
    ("", "j", "", "dʒ"),
    # ------------------------------------------------------------- K
    (" ", "k", "n", ""),
    ("", "k", "", "k"),
    # ------------------------------------------------------------- L
    ("", "lo", "c#", "loʊ"),
    ("l", "l", "", ""),
    ("#:^", "l", "%", "əl"),
    ("", "lead", "", "lid"),
    ("", "l", "", "l"),
    # ------------------------------------------------------------- M
    ("", "mm", "", "m"),
    ("", "mov", "", "muv"),
    ("", "m", "", "m"),
    # ------------------------------------------------------------- N
    ("", "nn", "", "n"),
    ("e", "ng", "+", "ndʒ"),
    ("", "ng", "r", "ŋg"),
    ("", "ng", "#", "ŋg"),
    ("", "ngl", "%", "ŋgəl"),
    ("", "ng", "", "ŋ"),
    ("", "nk", "", "ŋk"),
    (" ", "now", " ", "naʊ"),
    ("", "n", "", "n"),
    # ------------------------------------------------------------- O
    ("", "of", " ", "əv"),
    (" ", "over", "", "oʊvɜɹ"),
    ("", "orough", "", "ɜɹoʊ"),
    ("#:", "or", " ", "ɜɹ"),
    ("#:", "ors", " ", "ɜɹz"),
    ("", "or", "", "ɔɹ"),
    (" ", "one", "", "wʌn"),
    ("", "ow", "", "oʊ"),
    ("", "ov", "", "ʌv"),
    ("", "o", "^%", "oʊ"),
    ("", "o", "^en", "oʊ"),
    ("", "o", "^i#", "oʊ"),
    ("", "ol", "d", "oʊl"),
    ("", "ought", "", "ɔt"),
    ("", "ough", "", "ʌf"),
    (" ", "ou", "", "aʊ"),
    ("h", "ou", "s#", "aʊ"),
    ("", "ous", "", "əs"),
    ("", "our", "", "ɔɹ"),
    ("", "ould", "", "ʊd"),
    ("^", "ou", "^l", "ʌ"),
    ("", "oup", "", "up"),
    ("", "ou", "", "aʊ"),
    ("", "oy", "", "ɔɪ"),
    ("", "oing", "", "oʊɪŋ"),
    ("", "oi", "", "ɔɪ"),
    ("", "oor", "", "ɔɹ"),
    ("", "ook", "", "ʊk"),
    ("", "ood", "", "ʊd"),
    ("", "oo", "", "u"),
    ("", "o", "e", "oʊ"),
    ("", "o", " ", "oʊ"),
    ("", "oa", "", "oʊ"),
    (" ", "only", "", "oʊnli"),
    (" ", "once", "", "wʌns"),
    ("c", "o", "n", "ɑ"),
    ("", "o", "ng", "ɔ"),
    (" :^", "o", "n", "ʌ"),
    ("i", "on", "", "ən"),
    ("#:", "on", " ", "ən"),
    ("#^", "on", "", "ən"),
    ("", "o", "st ", "oʊ"),
    ("", "of", "^", "ɔf"),
    ("", "other", "", "ʌðɜɹ"),
    ("", "oss", " ", "ɔs"),
    ("#:^", "om", "", "ʌm"),
    ("", "o", "", "ɑ"),
    # ------------------------------------------------------------- P
    ("", "pp", "", "p"),
    ("", "ph", "", "f"),
    ("", "peop", "", "pip"),
    ("", "pow", "", "paʊ"),
    ("", "put", " ", "pʊt"),
    ("", "p", "", "p"),
    # ------------------------------------------------------------- Q
    ("", "quar", "", "kwɔɹ"),
    ("", "qu", "", "kw"),
    ("", "q", "", "k"),
    # ------------------------------------------------------------- R
    ("", "rr", "", "ɹ"),
    (" ", "re", "^#", "ɹi"),
    ("", "r", "", "ɹ"),
    # ------------------------------------------------------------- S
    ("", "sh", "", "ʃ"),
    ("#", "sion", "", "ʒən"),
    ("", "some", "", "sʌm"),
    ("#", "sur", "#", "ʒɜɹ"),
    ("", "sure", " ", "ʃɜɹ"),
    ("#", "su", "#", "ʒu"),
    ("#", "ssu", "#", "ʃu"),
    ("#", "sed", " ", "zd"),
    ("#", "s", "#", "z"),
    ("", "said", "", "sɛd"),
    ("^", "sion", "", "ʃən"),
    ("", "s", "s", ""),
    (".", "s", " ", "z"),
    ("#:.e", "s", " ", "z"),
    ("#:^#", "s", " ", "s"),
    ("u", "s", " ", "s"),
    (" :#", "s", " ", "z"),
    (" ", "sch", "", "sk"),
    ("", "s", "c+", ""),
    ("#", "sm", "", "zm"),
    ("", "s", "", "s"),
    # ------------------------------------------------------------- T
    ("", "tt", "", "t"),
    (" ", "the", " ", "ðə"),
    ("", "to", " ", "tu"),
    ("", "that", " ", "ðæt"),
    (" ", "this", " ", "ðɪs"),
    (" ", "they", "", "ðeɪ"),
    (" ", "there", "", "ðɛɹ"),
    ("", "ther", "", "ðɜɹ"),
    ("", "their", "", "ðɛɹ"),
    (" ", "than", " ", "ðæn"),
    (" ", "them", " ", "ðɛm"),
    ("", "these", " ", "ðiz"),
    (" ", "then", "", "ðɛn"),
    ("", "through", "", "θɹu"),
    ("", "those", "", "ðoʊz"),
    ("", "though", " ", "ðoʊ"),
    (" ", "thus", "", "ðʌs"),
    ("", "th", "", "θ"),
    ("#:", "ted", " ", "tɪd"),
    ("s", "ti", "#n", "tʃ"),
    ("", "ti", "o", "ʃ"),
    ("", "ti", "a", "ʃ"),
    ("", "tien", "", "ʃən"),
    ("", "tur", "#", "tʃɜɹ"),
    ("", "tu", "a", "tʃu"),
    (" ", "two", "", "tu"),
    ("", "t", "", "t"),
    # ------------------------------------------------------------- U
    (" ", "un", "i", "jun"),
    (" ", "un", "", "ʌn"),
    (" ", "upon", "", "əpɔn"),
    ("@", "ur", "#", "ɜɹ"),
    ("", "ur", "#", "jʊɹ"),
    ("", "ur", "", "ɜɹ"),
    ("", "u", "^ ", "ʌ"),
    ("", "u", "^^", "ʌ"),
    ("", "uy", "", "aɪ"),
    (" g", "u", "#", ""),
    ("g", "u", "%", ""),
    ("g", "u", "#", "w"),
    ("#n", "u", "", "ju"),
    ("@", "u", "", "u"),
    ("", "u", "", "ju"),
    # ------------------------------------------------------------- V
    ("", "view", "", "vju"),
    ("", "v", "", "v"),
    # ------------------------------------------------------------- W
    (" ", "were", "", "wɜɹ"),
    ("", "wa", "s", "wɑ"),
    ("", "wa", "t", "wɑ"),
    ("", "where", "", "wɛɹ"),
    ("", "what", "", "wɑt"),
    ("", "whol", "", "hoʊl"),
    ("", "who", "", "hu"),
    ("", "wh", "", "w"),
    ("", "war", "", "wɔɹ"),
    ("", "wor", "^", "wɜɹ"),
    ("", "wr", "", "ɹ"),
    ("", "w", "", "w"),
    # ------------------------------------------------------------- X
    (" ", "x", "", "z"),
    ("", "x", "", "ks"),
    # ------------------------------------------------------------- Y
    ("", "young", "", "jʌŋ"),
    (" ", "you", "", "ju"),
    (" ", "yes", "", "jɛs"),
    (" ", "y", "", "j"),
    ("^", "y", "#", "j"),
    ("#:^", "y", " ", "i"),
    ("#:^", "y", "i", "i"),
    (" :", "y", " ", "aɪ"),
    (" :", "y", "#", "aɪ"),
    (" :", "y", "^+:#", "ɪ"),
    (" :", "y", "^#", "aɪ"),
    ("", "y", "", "ɪ"),
    # ------------------------------------------------------------- Z
    ("", "zz", "", "z"),
    ("", "z", "", "z"),
]

# Names whose conventional anglicized pronunciation the letter-to-sound
# rules cannot derive.  Kept deliberately small: the paper's point is that
# systematic TTP output, not a perfect dictionary, already supports good
# multiscript matching.
_EXCEPTIONS: dict[str, str] = {
    "nehru": "nɛhɹu",
    "iyer": "aɪjɜɹ",
    "iyengar": "aɪjəŋgɑɹ",
    "muhammad": "muhɑməd",
    "mohammed": "mohɑməd",
    "qaeda": "kaɪdə",
    "alqaeda": "ælkaɪdə",
    "gandhi": "gɑndi",
    "sean": "ʃɔn",
    "geoffrey": "dʒɛfɹi",
    "stephen": "stivən",
    "jose": "hoʊzeɪ",
    "juan": "wɑn",
    "xavier": "zeɪviɜɹ",
    "michael": "maɪkəl",
    "sarah": "sɛɹə",
    "thomas": "tɑməs",
    "theresa": "təɹisə",
    "anthony": "æntəni",
    "deborah": "dɛbɹə",
    "matthew": "mæθju",
    "joseph": "dʒoʊsəf",
    "john": "dʒɑn",
    "chicago": "ʃɪkɑgoʊ",
    "illinois": "ɪlənɔɪ",
    "arkansas": "ɑɹkənsɔ",
    "tucson": "tusɑn",
    "leicester": "lɛstɜɹ",
    "edinburgh": "ɛdɪnbəɹə",
}


_INDEX = compile_rules(_RULES)
_EXCEPTION_PHONEMES = parse_table(_EXCEPTIONS)


class EnglishConverter(TTPConverter):
    """Rule-based English G2P with a small name-exceptions lexicon."""

    language = "english"
    script = "latin"

    def __init__(self, extra_exceptions: dict[str, str] | None = None):
        self._exceptions = dict(_EXCEPTION_PHONEMES)
        if extra_exceptions:
            for word, ipa in extra_exceptions.items():
                self._exceptions[normalize_latin(word)] = parse_ipa(ipa)

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        normalized = normalize_latin(word)
        if not normalized:
            return ()
        exception = self._exceptions.get(normalized)
        if exception is not None:
            return exception
        if not normalized.isalpha():
            raise TTPError(
                f"english converter: word {word!r} contains "
                "non-alphabetic characters after normalization"
            )
        return apply_rules(normalized, _INDEX, self.language)
