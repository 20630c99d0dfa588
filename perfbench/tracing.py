"""Per-layer spans recorded from outside the program.

Tracer.install() wraps the public functions of each chamberforms module in
place, in every module that holds a reference to them, and uninstall() puts
the originals back.  Each span adds its self time (its duration minus the
time its child spans cover) to the metric it is named after; counters are
bumped at the same boundaries.  Spans are aggregated as they close rather
than kept, so a traced round costs a few microseconds per call.
"""

from __future__ import annotations

import sys
import weakref
from collections import defaultdict
from time import perf_counter

# Every per-layer metric, in the order BENCHMARK.json lists them.
TIMES = (
    "cli.load_s", "cli.self_s",
    "arrangement.validate_s", "arrangement.compile_s",
    "oriented_matroid.ingest_s", "oriented_matroid.topes_s",
    "oriented_matroid.meet_faces_s",
    "matroid.construct_s", "matroid.flats_s", "matroid.beta_s",
    "forms.build_S_s", "forms.build_Sq_s", "forms.rhs_s",
    "polyring.det_S_s", "polyring.det_Sq_s",
    "flagspace.phi_s", "flagspace.kernel_s", "flagspace.y_matrix_s",
    "flagspace.expansion_s",
)
COUNTS = (
    "oriented_matroid.topes", "oriented_matroid.meet_faces_calls",
    "matroid.constructions",
    "polyring.det_Sq_calls", "polyring.det_Sq_points", "polyring.det_Sq_coeff_bits",
)
UNITS = {**{name: "s" for name in TIMES}, **{name: "count" for name in COUNTS},
         "polyring.det_Sq_coeff_bits": "bits"}


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_topes = weakref.WeakSet()
        self._beta_depth = 0

    def reset(self) -> None:
        self.totals = defaultdict(float)

    def snapshot(self) -> dict[str, float]:
        return {name: self.totals.get(name, 0) for name in TIMES + COUNTS
                if name != "cli.load_s"}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; its self time is added to totals[name]."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            self.totals[name] += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def _counted(self, name, counter, fn):
        def wrapped(*args, **kwargs):
            self.totals[counter] += 1
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def _bounded_topes(self, fn):
        def wrapped(om):
            topes = self.call("oriented_matroid.topes_s", fn, om)
            if om not in self._seen_topes:
                self._seen_topes.add(om)
                self.totals["oriented_matroid.topes"] += len(topes)
            return topes
        return wrapped

    def _beta(self, fn):
        # beta recurses through deletions and contractions; one span covers
        # the outermost call, so the minors it builds are its children.
        def wrapped(m):
            if self._beta_depth:
                return fn(m)
            self._beta_depth += 1
            try:
                return self.call("matroid.beta_s", fn, m)
            finally:
                self._beta_depth -= 1
        return wrapped

    def _poly_det(self, fn):
        def wrapped(m):
            rows = m.entries if hasattr(m, "entries") else m
            if all(len(e.coeffs) <= 1 for row in rows for e in row):
                return self.call("polyring.det_S_s", fn, m)
            self.totals["polyring.det_Sq_calls"] += 1
            self.totals["polyring.det_Sq_points"] += 1 + sum(
                max((len(e.coeffs) - 1 for e in row), default=0) for row in rows)
            det = self.call("polyring.det_Sq_s", fn, m)
            bits = max((abs(c).bit_length() for c in det.coeffs), default=0)
            key = "polyring.det_Sq_coeff_bits"
            self.totals[key] = max(self.totals[key], bits)
            return det
        return wrapped

    # -- patching -----------------------------------------------------------------

    def _replace(self, original, wrapped) -> None:
        """Rebind every module-level name in chamberforms that holds original."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chamberforms"
                                   or mod_name.startswith("chamberforms.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _method(self, cls, attr, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self) -> None:
        from chamberforms import arrangement, flagspace, forms, matroid
        from chamberforms import oriented_matroid as om
        from chamberforms import polyring

        span = self._span
        A, AOM, M = arrangement.Arrangement, om.AffineOrientedMatroid, matroid.Matroid
        self._method(A, "validate_generic", lambda f: span("arrangement.validate_s", f))
        self._method(A, "compile", lambda f: span("arrangement.compile_s", f))
        self._method(AOM, "from_json", lambda f: span("oriented_matroid.ingest_s", f))
        self._method(AOM, "bounded_topes", self._bounded_topes)
        self._method(AOM, "meet_faces", lambda f: self._counted(
            "oriented_matroid.meet_faces_s", "oriented_matroid.meet_faces_calls", f))
        self._method(M, "__init__", lambda f: self._counted(
            "matroid.construct_s", "matroid.constructions", f))
        self._method(M, "flats", lambda f: span("matroid.flats_s", f))
        self._method(M, "beta", self._beta)
        for fn, name in ((forms.build_S, "forms.build_S_s"),
                         (forms.build_Sq, "forms.build_Sq_s"),
                         (forms.rhs_classical, "forms.rhs_s"),
                         (forms.rhs_q, "forms.rhs_s"),
                         (flagspace.phi, "flagspace.phi_s"),
                         (flagspace.check_basis_of_kernel, "flagspace.kernel_s"),
                         (flagspace.build_y_matrix, "flagspace.y_matrix_s"),
                         (flagspace.expansion_matches_y, "flagspace.expansion_s")):
            self._replace(fn, span(name, fn))
        self._replace(polyring.poly_det, self._poly_det(polyring.poly_det))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
