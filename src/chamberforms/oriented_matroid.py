"""Sign-vector combinatorics: chirotopes, cocircuits, topes and face counts.

Sign vectors are packed two bits per element into a single int (00 zero,
01 plus, 10 minus), so conformity and separation are a few machine-word
operations even for long ground sets.  The affine structure keeps the lift
element implicit: feasible cocircuits and topes carry lift sign +, infinite
cocircuits carry lift sign 0.  Faces come from vertex stars: by genericity
each feasible cocircuit's zero set is a basis, and every face of a bounded
tope is one of its vertices with some zeros filled in by the tope's signs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence

from .matroid import Matroid

_CODE = {0: 0, 1: 1, -1: 2}
_SIGN = {0: 0, 1: 1, 2: -1}
_CHAR = {0: "0", 1: "+", 2: "-"}


class ClosureCapExceeded(RuntimeError):
    """The vertex stars would hold more than _CLOSURE_CAP sign vectors."""


_CLOSURE_CAP = 10 ** 6  # most sign vectors all vertex stars may hold


def name_from_json(value, field: str) -> str:
    """A label read from JSON: a string or an integer, never a boolean."""
    if type(value) not in (str, int):  # true would read as "True"
        raise TypeError(f"{field} must be a string or an integer, got {value!r}")
    return str(value)


def _odd_mask(n: int) -> int:
    # 0b0101...01 with n slots
    return ((1 << (2 * n)) - 1) // 3


class SignVector:
    """Total sign assignment on an ordered ground set, packed into one int."""

    __slots__ = ("ground", "bits")

    def __init__(self, ground: tuple, bits: int):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("SignVector is immutable")

    @classmethod
    def from_signs(cls, ground: Sequence, signs: Iterable[int]) -> "SignVector":
        ground = tuple(ground)
        bits = 0
        shift = 0
        count = 0
        for s in signs:
            bits |= _CODE[s] << shift
            shift += 2
            count += 1
        if count != len(ground):
            raise ValueError("sign count does not match ground size")
        return cls(ground, bits)

    @classmethod
    def from_text(cls, ground: Sequence, text: str) -> "SignVector":
        """Parse the support token form, e.g. "5 6 -7 -8"."""
        ground = tuple(ground)
        idx = {str(e): i for i, e in enumerate(ground)}
        signs = [0] * len(ground)
        for tok in text.split():
            neg = tok.startswith("-")
            name = tok[1:] if neg else tok
            if name not in idx:
                raise ValueError(f"unknown element {name!r} in sign vector text")
            if signs[idx[name]] != 0:
                raise ValueError(f"element {name!r} listed twice")
            signs[idx[name]] = -1 if neg else 1
        return cls.from_signs(ground, signs)

    # -- views -----------------------------------------------------------------

    def sign(self, e) -> int:
        i = self.ground.index(e)
        return _SIGN[(self.bits >> (2 * i)) & 3]

    def signs(self) -> tuple[int, ...]:
        b = self.bits
        out = []
        for _ in self.ground:
            out.append(_SIGN[b & 3])
            b >>= 2
        return tuple(out)

    def support(self) -> tuple:
        return tuple(e for e, s in zip(self.ground, self.signs()) if s != 0)

    def zero_set(self) -> frozenset:
        return frozenset(e for e, s in zip(self.ground, self.signs()) if s == 0)

    def key(self) -> str:
        """Canonical sort key: '+' < '-' < '0' in ground order."""
        return "".join(_CHAR[(self.bits >> (2 * i)) & 3]
                       for i in range(len(self.ground)))

    def text(self) -> str:
        toks = [("-" if s < 0 else "") + str(e)
                for e, s in zip(self.ground, self.signs()) if s != 0]
        return " ".join(toks)

    def __neg__(self) -> "SignVector":
        n = len(self.ground)
        odd = _odd_mask(n)
        b = self.bits
        return SignVector(self.ground, ((b & odd) << 1) | ((b >> 1) & odd))

    def __eq__(self, other):
        return (isinstance(other, SignVector)
                and self.ground == other.ground and self.bits == other.bits)

    def __hash__(self):
        return hash((self.ground, self.bits))

    def __repr__(self):
        return f"SignVector({self.key()})"


def _nz2(bits: int, odd: int) -> int:
    nz = (bits | bits >> 1) & odd
    return nz | (nz << 1)


def _subsets(mask: int):
    """Every s with s & ~mask == 0, from mask itself down to 0."""
    s = mask
    while s:
        yield s
        s = (s - 1) & mask
    yield 0


def _fillings(y: int, odd: int):
    """The topes around vertex y: each zero slot of y filled with + or -.

    odd is the _odd_mask of y's length; s picks the slots that get +.
    """
    z = odd & ~(y | y >> 1)
    for s in _subsets(z):
        yield y | s | (z ^ s) << 1


def separation(a: SignVector, b: SignVector) -> int:
    """Number of ground elements where the signs differ."""
    if a.ground != b.ground:
        raise ValueError("sign vectors live on different ground sets")
    v = a.bits ^ b.bits
    odd = _odd_mask(len(a.ground))
    return bin((v | v >> 1) & odd).count("1")


def _perm_parity(seq: Sequence[int]) -> int:
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


class Chirotope:
    """Basis orientation: alternating sign map on r-tuples of the ground."""

    __slots__ = ("rank", "ground", "_signs", "_index", "_matroid")

    def __init__(self, rank: int, ground: Sequence, signs: dict):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "ground", tuple(ground))
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(ground)})
        object.__setattr__(self, "_signs", dict(signs))
        object.__setattr__(self, "_matroid", None)
        if all(v == 0 for v in self._signs.values()):
            raise ValueError("chirotope must not be identically zero")
        expected = set(combinations(range(len(self.ground)), rank))
        if set(self._signs) != expected:
            raise ValueError("chirotope must assign a sign to every lex r-subset")

    def __setattr__(self, *_):
        raise AttributeError("Chirotope is immutable")

    @classmethod
    def from_text(cls, rank: int, ground: Sequence, text: str) -> "Chirotope":
        subs = list(combinations(range(len(ground)), rank))
        if len(text) != len(subs):
            raise ValueError(
                f"chirotope text needs {len(subs)} characters, got {len(text)}")
        decode = {"+": 1, "-": -1, "0": 0}
        try:
            signs = {s: decode[ch] for s, ch in zip(subs, text)}
        except KeyError as exc:
            raise ValueError(f"invalid chirotope character {exc.args[0]!r}") from None
        return cls(rank, ground, signs)

    def text(self) -> str:
        subs = combinations(range(len(self.ground)), self.rank)
        encode = {1: "+", -1: "-", 0: "0"}
        return "".join(encode[self._signs[s]] for s in subs)

    def sign(self, elements: Sequence) -> int:
        """Alternating extension: stored sign times permutation parity."""
        idx = [self._index[e] for e in elements]
        if len(idx) != self.rank:
            raise ValueError(f"chirotope takes {self.rank}-tuples")
        if len(set(idx)) != len(idx):
            return 0
        base = self._signs[tuple(sorted(idx))]
        return base * _perm_parity(idx) if base else 0

    def bases(self) -> list[frozenset]:
        return [frozenset(self.ground[i] for i in s)
                for s, v in sorted(self._signs.items()) if v != 0]

    def to_matroid(self) -> Matroid:
        """The underlying matroid, built once; basis exchange is not checked."""
        if self._matroid is None:
            object.__setattr__(self, "_matroid", Matroid(self.ground, self.bases()))
        return self._matroid


def cocircuits_from_chirotope(c: Chirotope) -> list[SignVector]:
    """One canonical representative per +/- cocircuit pair.

    For each (r-1)-subset s of full rank the candidate Y(j) = chi(s, j);
    rank-deficient subsets produce the zero vector and are skipped.
    """
    ground = c.ground
    n = len(ground)
    seen = set()
    out = []
    for s in combinations(range(n), c.rank - 1):
        signs = [0] * n
        selem = [ground[i] for i in s]
        for j in range(n):
            if j in s:
                continue
            signs[j] = c.sign(selem + [ground[j]])
        sv = SignVector.from_signs(ground, signs)
        if sv.bits == 0:
            continue
        canon = sv if _first_nonzero_positive(sv) else -sv
        if canon.bits not in seen:
            seen.add(canon.bits)
            out.append(canon)
    _check_support_minimality(out)
    return sorted(out, key=SignVector.key)


def _first_nonzero_positive(sv: SignVector) -> bool:
    b = sv.bits
    while b:
        code = b & 3
        if code:
            return code == 1
        b >>= 2
    return True


def _check_support_minimality(cocircuits: Sequence[SignVector]) -> None:
    supports = [frozenset(sv.support()) for sv in cocircuits]
    for i, si in enumerate(supports):
        for j, sj in enumerate(supports):
            if i != j and sj < si:
                raise ValueError(
                    f"support of {cocircuits[i].key()} strictly contains "
                    f"{cocircuits[j].key()}: not cocircuits")


class AffineOrientedMatroid:
    """Central chirotope plus cocircuits split by their sign at the lift.

    feasible carries the cocircuits with lift sign +; infinite pairs (lift
    sign 0) are the cocircuits of the central oriented matroid, stored as
    one canonical representative each.
    """

    def __init__(self, chirotope: Chirotope, feasible: Sequence[SignVector],
                 g="g"):
        self.central = chirotope
        self.ground = chirotope.ground
        self.g = g
        if g in self.ground:
            raise ValueError("lift element must be distinct from the ground set")
        self.feasible = tuple(sorted(feasible, key=SignVector.key))
        self.infinite = tuple(cocircuits_from_chirotope(chirotope))
        self._bounded: Optional[tuple[SignVector, ...]] = None
        self._face_masks: dict[int, int] = {}
        self._by_zero_set: dict[frozenset, SignVector] = {}
        self._validate()

    def _validate(self):
        bases = set(self.matroid().bases)
        zero_sets = []
        for y in self.feasible:
            if y.ground != self.ground:
                raise ValueError("feasible cocircuit on wrong ground set")
            z = y.zero_set()
            if z not in bases:
                raise ValueError(
                    f"genericity violated: zero set {set(z)} of feasible "
                    f"cocircuit {y.text()!r} is not a basis")
            zero_sets.append(z)
            self._by_zero_set[z] = y
        if len(set(zero_sets)) != len(zero_sets):
            raise ValueError("two feasible cocircuits share a zero set")
        if len(zero_sets) != len(bases):
            raise ValueError(
                f"bijectivity violated: {len(zero_sets)} feasible cocircuits "
                f"vs {len(bases)} bases")

    def matroid(self) -> Matroid:
        return self.central.to_matroid()

    def basis_to_cocircuit(self, b: Iterable) -> SignVector:
        y = self._by_zero_set.get(frozenset(b))
        if y is None:
            raise ValueError(f"no feasible cocircuit with zero set {set(b)}")
        return y

    # -- tope enumeration --------------------------------------------------------

    def bounded_topes(self) -> list[SignVector]:
        """The bounded topes, sorted by SignVector.key, from the vertex stars.

        A tope's feasible faces are the vertices it fills, so the same pass
        gives its face mask.  The cap, |feasible| * 2^r, also bounds every
        meet, which has at most |common| * 2^dim faces.
        """
        if self._bounded is None:
            r = self.central.rank
            if len(self.feasible) << r > _CLOSURE_CAP:
                raise ClosureCapExceeded(
                    f"{len(self.feasible)} vertex stars of 2^{r} topes exceed "
                    f"the cap {_CLOSURE_CAP}")
            odd = _odd_mask(len(self.ground))
            masks: dict[int, int] = {}
            for k, y in enumerate(self.feasible):
                for x in _fillings(y.bits, odd):
                    masks[x] = masks.get(x, 0) | 1 << k
            inf_nz = [(y, _nz2(y, odd)) for v in self.infinite
                      for y in (v.bits, (-v).bits)]
            topes = []
            for x, mask in masks.items():
                if any((x & nz) == y for y, nz in inf_nz):
                    continue  # an infinite cocircuit is a face: unbounded
                topes.append(SignVector(self.ground, x))
                self._face_masks[x] = mask
            self._bounded = tuple(sorted(topes, key=SignVector.key))
        return list(self._bounded)

    def face_mask(self, t: SignVector) -> int:
        """Bit k is set when feasible cocircuit k is a face of bounded tope t."""
        if self._bounded is None:
            self.bounded_topes()
        return self._face_masks[t.bits]

    def cocircuits_in(self, mask: int) -> list[SignVector]:
        """The feasible cocircuits whose bits are set in mask."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.feasible[low.bit_length() - 1])
            mask ^= low
        return out

    # -- serialization -----------------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "AffineOrientedMatroid":
        try:
            rank = doc["rank"]
            if type(rank) is not int or rank < 1:  # JSON true would read as 1
                raise TypeError(f"rank must be an integer >= 1, got {rank!r}")
            elements, text = doc["elements"], doc["chirotope"]
            if not isinstance(elements, list):  # a string would read per character
                raise TypeError("elements must be an array")
            if not isinstance(text, str):
                raise TypeError("chirotope must be a string")
            elements = tuple(name_from_json(e, "each element") for e in elements)
            chi = Chirotope.from_text(rank, elements, text)
            lift = doc["lift"]
            if not isinstance(lift, dict):
                raise TypeError("lift must be an object")
            g = name_from_json(lift.get("g", "g"), "lift label g")
            texts = lift["feasible_cocircuits"]
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                raise TypeError("feasible cocircuits must be an array of strings")
            feasible = [SignVector.from_text(elements, t) for t in texts]
        except KeyError as exc:
            raise ValueError(f"malformed oriented-matroid JSON: missing {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed oriented-matroid JSON: {exc}") from None
        chi.to_matroid().check_exchange()  # the one check of outside bases
        return cls(chi, feasible, g=g)

    def to_json(self) -> dict:
        return {
            "rank": self.central.rank,
            "elements": list(self.ground),
            "chirotope": self.central.text(),
            "lift": {"g": self.g,
                     "feasible_cocircuits": [y.text() for y in self.feasible]},
        }

    def meet_faces(self, a: SignVector, b: SignVector) -> Optional[tuple[int, ...]]:
        """F-vector f_0..f_dim of the common face of bounded topes a and b, or None.

        Every face is a common vertex Y with some of its zeros filled in by
        the signs of the top face, which composes all common vertices.  Its
        zero set lies inside Y's, a basis by genericity, so the face has
        dimension r minus its size.
        """
        common = [y.bits for y in self.cocircuits_in(self.face_mask(a)
                                                     & self.face_mask(b))]
        if not common:
            return None
        odd = _odd_mask(len(self.ground))
        top = 0
        for y in common:
            top |= y
        faces = {y | s for y in common for s in _subsets(top & ~_nz2(y, odd))}
        zero_dim = self.central.rank - len(self.ground)  # + support size
        counts = [0] * (zero_dim + ((top | top >> 1) & odd).bit_count() + 1)
        for x in faces:
            counts[zero_dim + ((x | x >> 1) & odd).bit_count()] += 1
        return tuple(counts)  # top is the one face of top dim
