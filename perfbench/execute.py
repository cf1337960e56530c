"""Runs jobs against the package under test.

``load`` imports the package from ``src/`` of the checkout.  Library jobs
call the names the package exports, the way a user of the library does;
CLI jobs call ``hahnseries.cli.main`` with captured output streams.
"""

from __future__ import annotations

import importlib
import io
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = ("cli", "parser", "series", "groups", "fields", "supports",
          "conditions", "classify", "verify")


def load():
    """Import hahnseries and its layer modules; returns the package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("hahnseries")
    for layer in LAYERS:
        importlib.import_module(f"hahnseries.{layer}")
    return package


class Executor:
    """Calls one job at a time.  Memo queries share an EvaluationContext
    in ``contexts`` until the caller clears it at the end of a round.

    ``main`` is the CLI entry point to call; the tracer passes a wrapped one.
    """

    def __init__(self, package, main=None):
        self.h = package
        self.main = main or package.cli.main
        self.contexts = {}

    def run(self, job):
        if job.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            code = self.main(list(job.args), out, err)
            return code, out.getvalue(), err.getvalue()
        return getattr(self, "_" + job.kind)(*job.args)

    # -- helpers ------------------------------------------------------------

    def _field(self, name):
        h = self.h
        if name == "Q":
            return h.QQ
        return h.prime_field(int(name[1:]))

    def _series(self, group, fld, pairs):
        g = self.h.INTEGERS if group == "Z" else self.h.RATIONALS
        return self.h.from_terms(g, fld, [(g.element(e), fld.element(c)) for e, c in pairs])

    def _horizon(self, bound):
        return self.h.Horizon(self.h.INTEGERS.element(bound))

    # -- library jobs ---------------------------------------------------------

    def _square(self, field, squarings, bound):
        h = self.h
        fld = self._field(field)
        s = h.one_series(h.INTEGERS, fld) + h.t_power(h.INTEGERS.element(1), fld)
        for _ in range(squarings):
            s = s * s
        return h.EvaluationContext(self._horizon(bound)).coefficients(s)

    def _memo(self, index, field, pairs, top, bound):
        h = self.h
        if index not in self.contexts:
            node = h.invert(self._series("Z", self._field(field), pairs))
            self.contexts[index] = (h.EvaluationContext(self._horizon(top)), node)
        ctx, node = self.contexts[index]
        return ctx.coefficients(node, h.INTEGERS.element(bound))

    def _roundtrip(self, field, pairs, bound):
        h = self.h
        fld = self._field(field)
        b = self._series("Z", fld, pairs)
        horizon = self._horizon(bound)
        inverse = h.invert(b, horizon)
        one = h.one_series(h.INTEGERS, fld)
        return h.equal_up_to(b * inverse, one, horizon)

    def _fp_gap(self, p):
        return self.h.verify_fp_gap(p)

    def _neumann(self, group, terms, bound):
        h = self.h
        a = self._series(group, h.QQ, [(Fraction(*e), Fraction(*c)) for e, c in terms])
        g = h.INTEGERS if group == "Z" else h.RATIONALS
        return h.verify_neumann_support(a, h.Horizon(g.element(bound)))

    def _product(self, case, x, y, bound):
        h = self.h
        verify = h.verify_product_support
        if case == "x-powers":
            f2x = h.rational_functions(2)
            xs = [f2x.element(((0,) * d + (1,), (1,))) for d in (1, 2)]
            a = h.from_terms(h.INTEGERS, f2x, [(h.INTEGERS.element(0), f2x.one),
                                               (h.INTEGERS.element(x), xs[0])])
            b = h.from_terms(h.INTEGERS, f2x, [(h.INTEGERS.element(0), f2x.one),
                                               (h.INTEGERS.element(y), xs[1])])
            return verify(a, b, self._horizon(bound))
        if case == "cancel":
            a = self._series("Z", h.QQ, [(0, 1), (x, 1)])
            b = self._series("Z", h.QQ, [(0, 1), (x, -1)])
            return verify(a, b, self._horizon(bound))
        a = self._series("Z", h.QQ, [(e, Fraction(*c)) for e, c in x])
        b = self._series("Z", h.QQ, [(e, Fraction(*c)) for e, c in y])
        return verify(a, b, self._horizon(bound))

    def _refute(self, max_degree, bound):
        return self.h.refute_truncation_closure_f2(max_degree, self._horizon(bound))

    def _probe(self, members, op):
        h = self.h
        family = h.explicit_family(h.INTEGERS, [[h.INTEGERS.element(v) for v in m] for m in members])
        return h.brute_force_closure_probe(h.QQ, family, op)
