"""Sign-vector combinatorics: chirotopes, cocircuits, topes and face counts.

A sign vector on n elements is one int, plus | minus << n, where plus and
minus are the masks of its + and - entries, so its support, zero set and
separation are a few machine-word operations even for long ground sets.
The affine structure keeps the lift element implicit: feasible cocircuits
and topes carry lift sign +, and no cocircuit at infinity is stored.  Faces
come from vertex stars: by genericity each feasible cocircuit's zero set is
a basis, and every face of a bounded tope is one of its vertices with some
zeros filled in by the tope's signs.  Filling one zero gives an edge, a
segment when two vertices lie on it and a ray when one does; a tope is
bounded exactly when none of its edges is a ray, since its vertices and
segments form a connected graph.

A face of a bounded tope is fixed by its vertex set, which composes to it,
so two bounded topes meet only where they share a vertex, and a meet is
named by its mask of common vertices.  Each face is a simple polytope, so
its f-vector follows from those of its facets, each the face's vertices on
one more hyperplane; meet_faces computes it once per mask.

Sets of ground elements (zero sets, bases, chirotope keys, and the plus
and minus halves of a sign vector) are masks in the convention of the
matroid module: bit i stands for ground[i].
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Optional, Sequence

from .matroid import Matroid, bits, r_subsets

class ClosureCapExceeded(RuntimeError):
    """The vertex stars would hold more than _CLOSURE_CAP sign vectors, or
    S and S_q more than _CLOSURE_CAP entries each."""


# most sign vectors all vertex stars may hold, and most entries of S or S_q
_CLOSURE_CAP = 10 ** 6


def check_star_cap(stars: int, r: int) -> None:
    """Raise ClosureCapExceeded when stars vertex stars of 2^r topes exceed the cap."""
    if stars << r > _CLOSURE_CAP:
        held = f"{stars} vertex stars" if stars > 1 else "a vertex star"
        raise ClosureCapExceeded(
            f"{held} of 2^{r} topes would exceed the cap {_CLOSURE_CAP}")


def check_form_cap(n_topes: int) -> None:
    """Raise ClosureCapExceeded when the n_topes x n_topes forms exceed the cap."""
    if n_topes * n_topes > _CLOSURE_CAP:
        raise ClosureCapExceeded(
            f"S and S_q on {n_topes} bounded topes would hold {n_topes ** 2} "
            f"entries each and exceed the cap {_CLOSURE_CAP}")


def name_from_json(value, field: str) -> str:
    """A label read from JSON: a string or an integer, never a boolean."""
    if type(value) not in (str, int):  # true would read as "True"
        raise TypeError(f"{field} must be a string or an integer, got {value!r}")
    return str(value)


def _support(x: int, n: int) -> int:
    """The mask of the nonzero entries of the packed sign vector x on n elements."""
    return (x | x >> n) & ((1 << n) - 1)


class SignVector:
    """Total sign assignment on an ordered ground set, packed into one int:
    bits = plus | minus << len(ground)."""

    __slots__ = ("ground", "bits")

    def __init__(self, ground: tuple, bits: int):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("SignVector is immutable")

    @classmethod
    def from_signs(cls, ground: Sequence, signs: Iterable[int]) -> "SignVector":
        ground, signs = tuple(ground), tuple(signs)
        if len(signs) != len(ground):
            raise ValueError("sign count does not match ground size")
        return cls(ground, sum(1 << i + len(ground) * (s < 0)
                               for i, s in enumerate(signs) if s))

    @classmethod
    def from_text(cls, ground: Sequence, text: str) -> "SignVector":
        """Parse the support token form, e.g. "5 6 -7 -8"."""
        ground = tuple(ground)
        idx = {str(e): i for i, e in enumerate(ground)}
        n, x = len(ground), 0
        for tok in text.split():
            neg = tok.startswith("-")
            name = tok[1:] if neg else tok
            if name not in idx:
                raise ValueError(f"unknown element {name!r} in sign vector text")
            if _support(x, n) >> idx[name] & 1:
                raise ValueError(f"element {name!r} listed twice")
            x |= 1 << idx[name] + n * neg
        return cls(ground, x)

    # -- views -----------------------------------------------------------------

    @property
    def plus(self) -> int:
        """The mask of the elements with sign +."""
        return self.bits & ((1 << len(self.ground)) - 1)

    @property
    def minus(self) -> int:
        """The mask of the elements with sign -."""
        return self.bits >> len(self.ground)

    def signs(self) -> tuple[int, ...]:
        plus, minus = self.plus, self.minus
        return tuple((plus >> i & 1) - (minus >> i & 1) for i in range(len(self.ground)))

    def zero_set(self) -> int:
        """The mask of the elements with sign 0."""
        n = len(self.ground)
        return ((1 << n) - 1) & ~_support(self.bits, n)

    def key(self) -> str:
        """Canonical sort key: '+' < '-' < '0' in ground order."""
        plus, minus = self.plus, self.minus
        return "".join("+" if plus >> i & 1 else "-" if minus >> i & 1 else "0"
                       for i in range(len(self.ground)))

    def text(self) -> str:
        toks = [("-" if s < 0 else "") + str(e)
                for e, s in zip(self.ground, self.signs()) if s != 0]
        return " ".join(toks)

    def __eq__(self, other):
        return (isinstance(other, SignVector)
                and self.ground == other.ground and self.bits == other.bits)

    def __hash__(self):
        return hash((self.ground, self.bits))

    def __repr__(self):
        return f"SignVector({self.key()})"


def _subsets(mask: int):
    """Every s with s & ~mask == 0, from mask itself down to 0."""
    s = mask
    while s:
        yield s
        s = (s - 1) & mask
    yield 0


def _fillings(y: int, n: int):
    """The topes around vertex y on n elements: each zero of y filled with
    + or -; s picks the zeros that get +."""
    z = ((1 << n) - 1) & ~_support(y, n)
    for s in _subsets(z):
        yield y | s | (z ^ s) << n


def _zero_codes(y: int, n: int):
    """The + code and the - code of each zero of y, a sign vector on n
    elements: each y | c is an edge at vertex y."""
    z = ((1 << n) - 1) & ~_support(y, n)
    while z:
        low = z & -z
        z ^= low
        yield low
        yield low << n


def separation(a: SignVector, b: SignVector) -> int:
    """Number of ground elements where the signs differ."""
    if a.ground != b.ground:
        raise ValueError("sign vectors live on different ground sets")
    return _support(a.bits ^ b.bits, len(a.ground)).bit_count()


def lift_couplings(y: SignVector) -> dict[int, int]:
    """(-1)^(r - pos(j)) y(j) for each (r+1)-subset s = b + j, keyed by s.

    b is the zero set of the cocircuit y, r its size and pos(j) the number
    of elements of b before j, so r - pos(j) counts the elements of b after
    j.  Times chi(b), this is the sign of the lifted chirotope on s.
    """
    b, minus = y.zero_set(), y.minus
    return {b | 1 << j: (-1) ** ((b >> j).bit_count() + (minus >> j & 1))
            for j in bits(_support(y.bits, len(y.ground)))}


class Chirotope:
    """Basis orientation: the sign of each r-subset of the ground, its
    elements in ground order.

    The signs are given and stored in the lexicographic order of the
    r-subsets, keyed by mask.
    """

    __slots__ = ("rank", "ground", "_signs", "_matroid")

    def __init__(self, rank: int, ground: Sequence, signs: Sequence[int]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "ground", tuple(ground))
        signs = list(signs)
        count = comb(len(self.ground), rank)  # before listing them: they may be many
        if len(signs) != count:
            raise ValueError(f"chirotope needs {count} signs, one per "
                             f"lex r-subset, got {len(signs)}")
        if not any(signs):
            raise ValueError("chirotope must not be identically zero")
        object.__setattr__(self, "_signs",
                           dict(zip(r_subsets(len(self.ground), rank), signs)))
        object.__setattr__(self, "_matroid", None)

    def __setattr__(self, *_):
        raise AttributeError("Chirotope is immutable")

    @classmethod
    def from_text(cls, rank: int, ground: Sequence, text: str) -> "Chirotope":
        decode = {"+": 1, "-": -1, "0": 0}
        try:
            signs = [decode[ch] for ch in text]
        except KeyError as exc:
            raise ValueError(f"invalid chirotope character {exc.args[0]!r}") from None
        return cls(rank, ground, signs)

    def text(self) -> str:
        encode = {1: "+", -1: "-", 0: "0"}
        return "".join(encode[v] for v in self._signs.values())

    def sign_of(self, b: int) -> int:
        """The sign of the r-subset mask b, its elements in ground order."""
        return self._signs[b]

    def bases(self) -> list[int]:
        """The basis masks, in lexicographic order."""
        return [b for b, v in self._signs.items() if v]

    def to_matroid(self) -> Matroid:
        """The underlying matroid, built once; basis exchange is not checked."""
        if self._matroid is None:
            object.__setattr__(self, "_matroid", Matroid(self.ground, self.bases()))
        return self._matroid


class AffineOrientedMatroid:
    """Central chirotope plus the feasible cocircuits, those with lift sign +.

    The cocircuits at infinity (lift sign 0) are not stored: the vertex
    stars alone tell the bounded topes, by the ray rule of bounded_topes.
    from_json also checks that the chirotope and the feasible cocircuits
    are one lifted chirotope; a compiled arrangement takes both from the
    same minors, so its constructor does not.
    """

    def __init__(self, chirotope: Chirotope, feasible: Sequence[SignVector],
                 g="g"):
        self.central = chirotope
        self.ground = chirotope.ground
        self.g = g
        if g in self.ground:
            raise ValueError("lift element must be distinct from the ground set")
        self.feasible = tuple(sorted(feasible, key=SignVector.key))
        self._bounded: Optional[tuple[SignVector, ...]] = None
        self._face_masks: dict[int, int] = {}
        self._vertex_pairs: Optional[tuple[tuple[int, int], ...]] = None
        self._f_vectors: dict[int, tuple[int, ...]] = {}
        self._on_hyperplane: list[int] = []  # per element e, the vertices on e
        self._by_zero_set: dict[int, SignVector] = {}
        self._validate()

    def _validate(self):
        m = self.matroid()
        for y in self.feasible:
            if y.ground != self.ground:
                raise ValueError("feasible cocircuit on wrong ground set")
            z = y.zero_set()
            if z not in m.bases:
                raise ValueError(
                    f"genericity violated: zero set {m.elements(z)}"
                    f" of feasible cocircuit {y.text()!r} is not a basis")
            self._by_zero_set[z] = y
        if len(self._by_zero_set) != len(self.feasible):
            raise ValueError("two feasible cocircuits share a zero set")
        if len(self.feasible) != len(m.bases):
            raise ValueError(
                f"bijectivity violated: {len(self.feasible)} feasible cocircuits "
                f"vs {len(m.bases)} bases")

    def check_lift(self) -> None:
        """Raise ValueError unless the chirotope and the feasible cocircuits
        give one chirotope of the lift.

        The cocircuit Y_b with zero set b gives the lift's sign on each
        (r+1)-subset s = b + j as chi(b) times lift_couplings(Y_b)[s]; every
        basis inside s must give the same sign.
        """
        lifted: dict[int, int] = {}
        for y in self.feasible:
            chi = self.central.sign_of(y.zero_set())
            for s, c in lift_couplings(y).items():
                if lifted.setdefault(s, chi * c) != chi * c:
                    raise ValueError(
                        "chirotope and feasible cocircuits disagree: the bases in "
                        f"{self.matroid().elements(s)} give the lift two signs")

    def matroid(self) -> Matroid:
        return self.central.to_matroid()

    def basis_to_cocircuit(self, b: int) -> SignVector:
        y = self._by_zero_set.get(b)
        if y is None:
            raise ValueError("no feasible cocircuit with zero set "
                             f"{self.matroid().elements(b)}")
        return y

    # -- tope enumeration --------------------------------------------------------

    def bounded_topes(self) -> list[SignVector]:
        """The bounded topes, sorted by SignVector.key, from the vertex stars.

        Filling zero e of vertex y with a sign gives an edge at y, and the
        vertices on that edge are the stars that give it: a ray is given by
        one.  A filling is unbounded when, at one of its vertices, it fills
        a zero with the sign of a ray.  A tope's feasible faces are the
        vertices it fills, so the same pass gives its face mask.  The cap,
        |feasible| * 2^r, also bounds every meet, which has at most
        |common| * 2^dim faces.
        """
        if self._bounded is None:
            check_star_cap(len(self.feasible), self.central.rank)
            n = len(self.ground)
            edges = Counter(y.bits | c for y in self.feasible
                            for c in _zero_codes(y.bits, n))
            masks: dict[int, int] = {}
            unbounded = set()
            for k, y in enumerate(self.feasible):
                rays = sum(c for c in _zero_codes(y.bits, n)
                           if edges[y.bits | c] == 1)
                for x in _fillings(y.bits, n):
                    masks[x] = masks.get(x, 0) | 1 << k
                    if x & rays:
                        unbounded.add(x)
            self._face_masks = {x: m for x, m in masks.items() if x not in unbounded}
            self._bounded = tuple(sorted((SignVector(self.ground, x)
                                          for x in self._face_masks),
                                         key=SignVector.key))
        return list(self._bounded)

    def face_mask(self, t: SignVector) -> int:
        """Bit k is set when feasible cocircuit k is a face of bounded tope t."""
        if self._bounded is None:
            self.bounded_topes()
        return self._face_masks[t.bits]

    def cocircuits_in(self, mask: int) -> list[SignVector]:
        """The feasible cocircuits whose bits are set in mask."""
        return [self.feasible[k] for k in bits(mask)]

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
        om = cls(chi, feasible, g=g)
        om.check_lift()
        return om

    def to_json(self) -> dict:
        return {
            "rank": self.central.rank,
            "elements": list(self.ground),
            "chirotope": self.central.text(),
            "lift": {"g": self.g,
                     "feasible_cocircuits": [y.text() for y in self.feasible]},
        }

    def vertex_pairs(self) -> tuple[tuple[int, int], ...]:
        """The index pairs i <= j of the bounded topes, in bounded_topes
        order, that share a vertex, sorted; built once.

        Each vertex star is a mask of tope indices, and the union of the
        stars of tope i's vertices holds every j that shares one with it.
        """
        if self._vertex_pairs is None:
            masks = [self._face_masks[t.bits] for t in self.bounded_topes()]
            stars = [0] * len(self.feasible)
            for i, mask in enumerate(masks):
                for k in bits(mask):
                    stars[k] |= 1 << i
            pairs = []
            for i, mask in enumerate(masks):
                near = 0
                for k in bits(mask):
                    near |= stars[k]
                pairs.extend((i, j) for j in bits(near >> i << i))
            self._vertex_pairs = tuple(pairs)
        return self._vertex_pairs

    def meet_faces(self, a: SignVector, b: SignVector) -> Optional[tuple[int, ...]]:
        """F-vector f_0..f_dim of the common face of bounded topes a and b, or
        None when they share no vertex.

        The common face is the composition of the common vertices, so its
        mask of vertices names it, and _f_vector computes each mask's
        f-vector once per instance.
        """
        common = self.face_mask(a) & self.face_mask(b)
        return self._f_vector(common) if common else None

    def _f_vector(self, face: int) -> tuple[int, ...]:
        """F-vector of the bounded face whose vertex mask is face, memoised.

        A face of dimension k has the zero set its vertices share, of size
        r - k by genericity.  Its facets are the nonempty proper masks
        face & Z_e, Z_e the vertices on hyperplane e: each is the face cut
        by e, and it is a facet since the hyperplanes through a vertex are
        independent.  The face is a simple polytope, each vertex lying on
        k of its edges, so each of its i-faces lies in exactly k - i
        facets (Ziegler, Lectures on Polytopes, 1995, section 2.5) and
        f_i = sum over facets of f_i / (k - i), f_k = 1.  A facet of the
        wrong dimension or a sum with a remainder raises ValueError: the
        input is then not an oriented matroid.
        """
        f = self._f_vectors.get(face)
        if f is not None:
            return f
        if not face & face - 1:
            f = (1,)
        else:
            if not self._on_hyperplane:
                self._on_hyperplane = [0] * len(self.ground)
                for k, y in enumerate(self.feasible):
                    for e in bits(y.zero_set()):
                        self._on_hyperplane[e] |= 1 << k
            dim = self.central.rank
            facets = []
            for z in self._on_hyperplane:
                cut = face & z
                if cut == face:
                    dim -= 1
                elif cut:
                    facets.append(self._f_vector(cut))
            if not facets or any(len(g) != dim for g in facets):
                raise ValueError(f"a face with {face.bit_count()} vertices has a "
                                 "facet of the wrong dimension: the input is not "
                                 "an oriented matroid")
            f = []
            for i, total in enumerate(map(sum, zip(*facets))):
                fi, rem = divmod(total, dim - i)
                if rem:
                    raise ValueError(f"a face with {face.bit_count()} vertices is "
                                     "not a simple polytope: the input is not an "
                                     "oriented matroid")
                f.append(fi)
            f = (*f, 1)
        self._f_vectors[face] = f
        return f
