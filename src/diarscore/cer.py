"""Character-level alignment and error counting.

Format characters are dropped, text is normalized to NFC, whitespace is
always removed, and a fixed punctuation table is stripped by default; what
remains is scored one code point per token (so each CJK character is one
token).  Alignment is unit-cost Levenshtein; when several minimum-cost
alignments exist the traceback prefers substitution over deletion over
insertion, making the S/D/I split deterministic.

The DP table is computed one hypothesis column at a time as bit vectors
over the reference positions (Myers' bit-parallel algorithm on Python
ints).  A distance needs O(n) memory for a reference of n characters; the
S/D/I traceback keeps 2n bits per hypothesis character instead of a full
integer table.
"""

from __future__ import annotations

import string
import unicodedata
from dataclasses import dataclass
from fractions import Fraction

from .errors import UndefinedMetricError, ValidationError

__all__ = ["CharSeq", "EditCounts", "PUNCTUATION", "edit_counts", "edit_distance", "normalize_text"]

# Each normalized token is one code point; a CharSeq is just their concatenation.
CharSeq = str

# Stripped by default: ASCII punctuation plus common CJK and fullwidth marks.
PUNCTUATION = frozenset(
    string.punctuation
    + "。，、；：？！·…—～‘’“”〝〞「」『』〈〉《》（）【】〔〕［］｛｝"
    + "＜＞，．；：？！＠＃＄％＾＆＊－＿＋＝｜＼／￥〃"
)


@dataclass(frozen=True)
class EditCounts:
    """Substitution/deletion/insertion counts against a reference of length n."""

    s: int
    d: int
    i: int
    n: int

    def __post_init__(self):
        if min(self.s, self.d, self.i, self.n) < 0:
            raise ValidationError("negative edit count")
        if self.s + self.d > self.n:
            raise ValidationError("substitutions + deletions exceed reference length")

    @property
    def distance(self) -> int:
        return self.s + self.d + self.i

    @property
    def cer(self) -> Fraction:
        """(s + d + i) / n; undefined for an empty reference."""
        if self.n == 0:
            raise UndefinedMetricError("empty reference: CER undefined")
        return Fraction(self.distance, self.n)

    def rate(self, component: str) -> Fraction:
        """One count ("s", "d" or "i") as a fraction of the reference length."""
        if self.n == 0:
            raise UndefinedMetricError("empty reference: rate undefined")
        return Fraction(getattr(self, component), self.n)

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(self.s + other.s, self.d + other.d, self.i + other.i, self.n + other.n)


def normalize_text(raw: str, strip_punctuation: bool = True) -> CharSeq:
    """Drop format characters, NFC-normalize, drop all whitespace, optionally punctuation.

    Format characters (Unicode category Cf, such as U+200B or U+FEFF) are
    invisible, so a text scores as it would without them.  They go before
    NFC, so the characters on either side compose as in the clean text.
    """
    # no Cf character is printable, so printable text skips the lookups
    if not raw.isprintable():
        raw = "".join(ch for ch in raw if unicodedata.category(ch) != "Cf")
    text = unicodedata.normalize("NFC", raw)
    return "".join(
        ch for ch in text if not ch.isspace() and not (strip_punctuation and ch in PUNCTUATION)
    )


def _columns(ref: str, hyp: str):
    """Yield the vertical deltas (VP, VN) of each DP column j = 1..len(hyp).

    Bit i-1 of VP (VN) is set when d[i][j] - d[i-1][j] is +1 (-1); both
    clear means 0.  This is Myers' bit-vector algorithm (Myers 1999) in
    Hyyro's (2001) global form: the top row d[0][j] = j adds a carry-in of 1
    to every horizontal delta, and column 0 (d[i][0] = i) is all +1.
    """
    mask = (1 << len(ref)) - 1
    peq: dict[str, int] = {}
    for pos, ch in enumerate(ref):
        peq[ch] = peq.get(ch, 0) | (1 << pos)
    vp, vn = mask, 0
    for ch in hyp:
        eq = peq.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (~(xh | vp) & mask)
        hn = vp & xh
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
        yield vp, vn


def edit_distance(ref: str, hyp: str) -> int:
    """Unit-cost Levenshtein distance, bit-parallel, in O(len(ref)) memory."""
    vp, vn = (1 << len(ref)) - 1, 0
    for vp, vn in _columns(ref, hyp):
        pass
    return len(hyp) + vp.bit_count() - vn.bit_count()


def edit_counts(ref: CharSeq, hyp: CharSeq) -> EditCounts:
    """Minimum-cost alignment counts with the fixed sub > del > ins tie-break.

    Keeps every column's (VP, VN) pair, 2n bits per hypothesis character
    for a reference of n, and walks back from d[n][m] through them.  The
    walk tracks here = d[i][j] and left = d[i][j-1] and reads each
    neighbour from one bit: d[i-1][j] = here - delta(i, j) and
    d[i-1][j-1] = left - delta(i, j-1).  A full prefix popcount is needed
    only when the walk enters a new column.
    """
    n, m = len(ref), len(hyp)
    vps, vns = [(1 << n) - 1], [0]  # column 0: d[i][0] = i
    for vp, vn in _columns(ref, hyp):
        vps.append(vp)
        vns.append(vn)

    def cell(i: int, j: int) -> int:
        low = (1 << i) - 1
        return j + (vps[j] & low).bit_count() - (vns[j] & low).bit_count()

    def delta(i: int, j: int) -> int:
        return (vps[j] >> (i - 1) & 1) - (vns[j] >> (i - 1) & 1)

    s = d = ins = 0
    i, j = n, m
    here = cell(n, m)
    left = cell(n, m - 1) if m else 0
    while i and j:
        diag = left - delta(i, j - 1)
        cost = ref[i - 1] != hyp[j - 1]
        if here == diag + cost:
            s += cost
            i -= 1
            j -= 1
            here = diag
            left = cell(i, j - 1) if j else 0
        elif vps[j] >> (i - 1) & 1:  # d[i-1][j] = here - 1
            d += 1
            left -= delta(i, j - 1)
            i -= 1
            here -= 1
        else:
            ins += 1
            j -= 1
            here = left
            left = cell(i, j - 1) if j else 0
    # on the top row only insertions remain, in the left column only deletions
    return EditCounts(s=s, d=d + i, i=ins + j, n=n)
