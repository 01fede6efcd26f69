"""The dense graded arithmetic, kept as the test oracle of the group-bracket
kernel: sums, scalings, powers and commutators of classes through
GradedRing.mul, which lifts both classes to the dense ring, multiplies them
over the support pairs (the power tables) and transforms the product back.
check_central_power_classes is the check on top of it that
graded.check_central_power_classes replaced; the library reads the same
commutators off two point products in the group (GroupModel.bracket_terms).
The lists of degree-one and ring generator classes live here too: only the
tests iterate over classes, the library over generator indices."""

import numpy as np

from propring.graded import GradedClass, GradedRing


class DenseGradedRing(GradedRing):
    def degree_one_classes(self) -> list[GradedClass]:
        return [self.a(i) for i in range(self.f)] + [self.b(i) for i in range(self.f)]

    def ring_generator_classes(self) -> list[GradedClass]:
        return self.degree_one_classes() + [self.c(i) for i in range(self.f)]

    def one(self) -> GradedClass:
        return GradedClass(0, (1,))

    def add(self, x: GradedClass, y: GradedClass) -> GradedClass:
        assert x.degree == y.degree
        s = self.field.add[np.array(x.coords, dtype=np.int16), np.array(y.coords, dtype=np.int16)]
        return GradedClass(x.degree, tuple(int(c) for c in s))

    def scale(self, coeff: int, x: GradedClass) -> GradedClass:
        s = self.field.mul[coeff % self.field.q, np.array(x.coords, dtype=np.int16)]
        return GradedClass(x.degree, tuple(int(c) for c in s))

    def sub(self, x: GradedClass, y: GradedClass) -> GradedClass:
        return self.add(x, self.scale(int(self.field.neg[1]), y))

    def power(self, x: GradedClass, e: int) -> GradedClass:
        self._gate(x.degree * e)
        out = self.one()
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def commutator(self, x: GradedClass, y: GradedClass) -> GradedClass:
        return self.sub(self.mul(x, y), self.mul(y, x))


def check_central_power_classes(gr: DenseGradedRing, N: int) -> dict:
    """The p^N-th power classes against every degree-one generator and each
    other by dense graded products; the signature of the library check
    with the graded ring in place of the group model."""
    q = gr.p**N
    powers = (
        [("a", i, gr.power(gr.a(i), q)) for i in range(gr.f)]
        + [("b", i, gr.power(gr.b(i), q)) for i in range(gr.f)]
        + [("c", i, gr.power(gr.c(i), q)) for i in range(gr.f)]
    )
    failures = []
    for kind, i, cls in powers:
        for t, g in enumerate(gr.degree_one_classes()):
            if not gr.commutator(cls, g).is_zero():
                failures.append({"power": f"{kind}{i}", "against": f"gen{t}"})
    for s in range(len(powers)):
        for t in range(s + 1, len(powers)):
            if not gr.commutator(powers[s][2], powers[t][2]).is_zero():
                failures.append({"power": f"{powers[s][0]}{powers[s][1]}",
                                 "against": f"{powers[t][0]}{powers[t][1]}"})
    return {"N": N, "pairs_checked": len(powers) * (2 * gr.f) + len(powers) * (len(powers) - 1) // 2,
            "failures": failures, "ok": not failures}
