"""Search bounds, violation reports and the coset partition shared by the checking routines."""

from dataclasses import dataclass, field

from .errors import WitnessRejected


@dataclass(frozen=True)
class Bounds:
    # cap on element/unit/idempotent enumeration of a finite ring (q^|support|)
    max_units: int = 2**20
    # cap on listed solution sets: a fixing-pair slice of the gauge equation, the coboundary orbit, the H^1 classes
    max_search: int = 10**7
    # cap on the idempotent count for semigroup automorphism enumeration
    aut_s_max_n: int = 8


DEFAULT_BOUNDS = Bounds()


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    detail: str = ""

    def as_json(self):
        return {"kind": self.kind, "where": list(self.where), "detail": self.detail}


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, where, detail=""):
        self.violations.append(Violation(kind, tuple(where), detail))

    def extend(self, other):
        self.violations.extend(other.violations)

    def as_json(self):
        return {"ok": self.ok, "violations": [v.as_json() for v in self.violations]}

    def __bool__(self):
        return self.ok


def cosets(elements, sub, mul):
    """{x: least element of its coset} over the cosets mul(x, h), h in sub, one for each x no earlier coset holds.

    Each coset must be |sub| new elements; the caller checks what they cover.
    """
    if not sub:
        raise WitnessRejected("a coset of an empty subgroup is empty")
    key_of = {}
    for x in elements:
        if x not in key_of:
            coset = [mul(x, h) for h in sub]
            size = len(key_of) + len(sub)
            key_of.update(dict.fromkeys(coset, min(coset)))
            if len(key_of) != size:
                raise WitnessRejected("a coset meets an earlier coset or repeats an element")
    return key_of
