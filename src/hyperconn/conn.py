"""Connections and curvature on idempotent-presented projective modules.

A projective module is presented as the image of an idempotent matrix Phi
acting on a free module. The connection operator for a tangent derivation
delta sends v to D_delta(v) + delta(Phi)*v, its curvature for a pair is the
commutator [delta(Phi), eta(Phi)], and the traces over the module and its
complement are tr(Phi*C) and tr(Psi*C), Psi = I - Phi (an idempotent cycles
out of a trace). A pair is flat when Phi*C, the endomorphism C induces on the
module, is zero: its report reads Phi*C up to the first nonzero entry and forms
the whole matrix only when asked (induced). All tests are exact, in the ring.

make_presentation keeps the exact Phi^2 - Phi and Phi*k it checks on the
frozen presentation, so a report reads them instead of computing them again.
Each delta(Phi) is formed once per presentation: connection_matrix keeps it
in a memo on the presentation, keyed by the derivation. The memo cannot go
stale. The presentation is frozen, a Derivation is immutable and hashed and
compared by its ring and generator images, so equal derivations share one
entry, and a copy made by the presentation's replace starts with an empty memo.
"""

from __future__ import annotations

from .matring import MatrixA, commutator, trace_product
from .deriv import Derivation, bracket
from .quotient import QuotientRing, RingElement


class PresentationError(ValueError):
    """The proposed data does not present a projective module."""


class Record:
    """A frozen record, as a frozen dataclass is, without importing dataclasses
    (which loads inspect, ast, dis and tokenize into every CLI process).

    Its fields are its class's __slots__, which __init__ takes in order, by
    position or by name; assigning or deleting one raises AttributeError. The
    first _compared fields (all when None) make ==, hash and the repr
    Name(field=value, ...); any later ones ride along. replace, copy and pickle
    rebuild a record through __init__ from its fields, except those named with
    a leading "_", which the subclass's __init__ makes anew."""

    __slots__ = ()
    _compared = None

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        set_field = object.__setattr__
        for i, name in enumerate(fields):
            set_field(self, name, values[i])

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[: self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__[: self._compared])
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{**self._fields(), **changes})

    def __reduce__(self):
        return type(self), tuple(self._fields().values())


class ProjectivePresentation(Record):
    """An idempotent presentation: the module is the image of Phi."""

    # psi is I - Phi, the complement. Left out of ==, hash and repr: the
    # Phi^2 - Phi and Phi*k (None without k) make_presentation checked, and
    # connection_matrix's memo delta -> delta(Phi), which starts empty
    __slots__ = ("ring", "n", "phi", "psi", "kernel_generator",
                 "defect", "kernel_image", "_connection_matrices")
    _compared = 5

    def __init__(self, ring, n, phi, psi, kernel_generator, defect, kernel_image):
        super().__init__(ring, n, phi, psi, kernel_generator, defect, kernel_image, {})

    def __repr__(self) -> str:
        return f"ProjectivePresentation(n={self.n} over {self.ring!r})"


def _vector_text(vec) -> str:  # a vector witness: (v1, v2, ...)
    return "(" + ", ".join(str(v) for v in vec) + ")"


def make_presentation(
    ring: QuotientRing, phi: MatrixA, kernel_generator=None
) -> ProjectivePresentation:
    """Validate an idempotent and package it with its complement.

    The optional kernel generator is a nonzero vector that Phi must
    annihilate; it witnesses membership in the kernel summand. The checked
    Phi^2 - Phi and Phi*k are kept on the result as defect and kernel_image.
    """
    if not phi.is_square:
        raise PresentationError("the idempotent must be square")
    defect = phi * phi - phi
    if not defect.is_zero:
        raise PresentationError(f"idempotency failure: Phi^2 - Phi = {defect}")
    n = phi.rows
    psi = MatrixA.identity(ring, n) - phi
    generator = image = None
    if kernel_generator is not None:
        generator = tuple(ring.element(v) for v in kernel_generator)
        if len(generator) != n:
            raise PresentationError(
                f"kernel generator length {len(generator)} does not match rank {n}"
            )
        if all(v.is_zero for v in generator):
            raise PresentationError("kernel generator must be nonzero")
        image = phi.mul_vector(generator)
        if any(not v.is_zero for v in image):
            witness = _vector_text(image)
            raise PresentationError(f"kernel generator not annihilated: Phi*k = {witness}")
    return ProjectivePresentation(ring, n, phi, psi, generator, defect, image)


def _operator(delta: Derivation, matrix: MatrixA):
    """The first-order operator v -> delta(v) + M*v."""

    def operator(vec):
        return tuple(a + b for a, b in zip(delta.apply_to_vector(vec), matrix.mul_vector(vec)))

    return operator


def connection_matrix(p: ProjectivePresentation, delta: Derivation) -> MatrixA:
    """delta(Phi), the matrix part of the connection operator A_delta.

    Formed on first use and kept on the presentation (see the module
    docstring for why the memo cannot go stale).
    """
    memo = p._connection_matrices
    dphi = memo.get(delta)  # one lookup: a Derivation hashes all its images
    if dphi is None:
        dphi = memo[delta] = delta.apply_to_matrix(p.phi)
    return dphi


def connection_apply(p: ProjectivePresentation, delta: Derivation, vector):
    """Apply the connection operator A_delta: v -> D_delta(v) + delta(Phi)*v
    to a coordinate vector."""
    vec = tuple(p.ring.element(v) for v in vector)
    return _operator(delta, connection_matrix(p, delta))(vec)


def curvature_matrix(p: ProjectivePresentation, delta: Derivation, eta: Derivation) -> MatrixA:
    """The curvature commutator [delta(Phi), eta(Phi)].

    When the presentation carries a kernel generator k, the result is
    checked to annihilate k; for tangent derivations this always holds.
    """
    c = commutator(connection_matrix(p, delta), connection_matrix(p, eta))
    if p.kernel_generator is not None:
        image = c.mul_vector(p.kernel_generator)
        if any(not v.is_zero for v in image):
            raise PresentationError(
                f"curvature does not annihilate the kernel generator: C*k = {_vector_text(image)}"
            )
    return c


def trace_over_image(p: ProjectivePresentation, c: MatrixA) -> RingElement:
    """Trace of the endomorphism induced on the module: tr(Phi*C*Phi) = tr(Phi*C)."""
    return trace_product(p.phi, c)


def trace_over_kernel(p: ProjectivePresentation, c: MatrixA) -> RingElement:
    """Trace of the endomorphism induced on the complement: tr(Psi*C*Psi) = tr(Psi*C)."""
    return trace_product(p.psi, c)


class CurvatureReport(Record):
    """Curvature data for one derivation pair; induced forms Phi*C on each read,
    from the Phi kept beside C and left out of ==, hash and repr."""

    __slots__ = ("pair", "commutator", "trace_image", "trace_kernel", "flat", "phi")
    _compared = 5

    @property
    def induced(self) -> MatrixA:
        return self.phi * self.commutator

    def to_json(self) -> dict:
        return {
            "pair": list(self.pair),
            "commutator": self.commutator.to_json(),
            "trace_image": str(self.trace_image),
            "trace_kernel": str(self.trace_kernel),
            "flat": self.flat,
        }


def curvature_report(
    p: ProjectivePresentation,
    delta: Derivation,
    eta: Derivation,
    label_delta: str,
    label_eta: str,
) -> CurvatureReport:
    c = curvature_matrix(p, delta, eta)
    trace_image = trace_over_image(p, c)
    trace_kernel = trace_over_kernel(p, c)
    total = c.trace()
    if trace_image + trace_kernel != total or not total.is_zero:
        raise PresentationError("trace split failed to sum to the (zero) commutator trace")
    # Phi*C = C*Phi: differentiating Phi^2 = Phi gives Phi*d(Phi) = d(Phi)*Psi
    # and Psi*d(Phi) = d(Phi)*Phi, so Phi*d(Phi)*e(Phi) = d(Phi)*e(Phi)*Phi for
    # d, e = delta, eta and either order. Hence Phi*C*Phi = Phi*Phi*C = Phi*C.
    flat = not any(p.phi._product_entries(c))
    return CurvatureReport((label_delta, label_eta), c, trace_image, trace_kernel, flat, p.phi)


def operator_commutator_matrix(
    p: ProjectivePresentation, delta: Derivation, potential: MatrixA
) -> MatrixA:
    """Matrix of [A_delta, X] on the standard basis, X a matrix potential.

    Since delta(X v) = delta(X) v + X delta(v), the operator commutator
    A_delta(X v) - X A_delta(v) is the A-linear map delta(X) + [delta(Phi), X].
    """
    dphi = connection_matrix(p, delta)
    return delta.apply_to_matrix(potential) + commutator(dphi, potential)


def _preserves_module(p: ProjectivePresentation, x: MatrixA) -> bool:
    # Phi*X*Phi = X*Phi = Phi*X holds exactly when Phi*X = X*Phi: that gives
    # Phi*X*Phi = Phi*Phi*X = Phi*X, since Phi*Phi = Phi.
    return commutator(p.phi, x).is_zero


def modified_curvature(
    p: ProjectivePresentation,
    delta: Derivation,
    eta: Derivation,
    bracket_delta_eta: Derivation,
    phi_delta: MatrixA,
    phi_eta: MatrixA,
    phi_bracket: MatrixA,
) -> MatrixA:
    """Curvature of the shifted connection A_delta + phi_delta, two ways.

    Route one forms column j of [A'_delta, A'_eta] - A'_[delta,eta] from the
    basis vector e_j. A derivation kills the constant e_j, so A'_d(e_j) is
    read off as column j of d(Phi) + phi_d; the nested operators are still
    applied to those columns. Route two assembles the same operator from
    parts: the unshifted curvature, the potential term
    [phi_delta, phi_eta] - phi_bracket, and the two operator commutators
    [A_delta, phi_eta] - [A_eta, phi_delta]. The two routes are
    verified to agree on the induced endomorphisms Phi*(.)*Phi, and the
    directly computed matrix is returned.
    """
    for x in (phi_delta, phi_eta, phi_bracket):
        if not _preserves_module(p, x):
            raise PresentationError(
                "potential does not preserve the module: need Phi*X*Phi = X*Phi = Phi*X"
            )
    if bracket(delta, eta) != bracket_delta_eta:
        raise ValueError("bracket mismatch: the supplied derivation is not [delta, eta]")

    # the shifted operators A'_d = D_d + M_d, M_d = d(Phi) + phi_d; D_d(e_j) = 0
    m_delta, m_eta, m_bracket = (
        connection_matrix(p, d) + x
        for d, x in ((delta, phi_delta), (eta, phi_eta), (bracket_delta_eta, phi_bracket))
    )
    sop_delta, sop_eta = _operator(delta, m_delta), _operator(eta, m_eta)
    columns = []
    for j in range(p.n):
        triples = zip(sop_delta(m_eta.column(j)), sop_eta(m_delta.column(j)), m_bracket.column(j))
        columns.append([a - b - c for a, b, c in triples])
    direct = MatrixA.from_rows(p.ring, zip(*columns))

    assembled = (
        curvature_matrix(p, delta, eta)
        + (commutator(phi_delta, phi_eta) - phi_bracket)
        + operator_commutator_matrix(p, delta, phi_eta)
        - operator_commutator_matrix(p, eta, phi_delta)
    )
    gap = p.phi * (direct - assembled) * p.phi
    if not gap.is_zero:
        raise PresentationError(
            f"modified curvature identity failed on the induced endomorphism: {gap}"
        )
    return direct


class DeviationReport(Record):
    """Ambient rank, module rank at a point, and their difference."""

    __slots__ = ("ambient", "rank", "deviation")


def deviation_report(p: ProjectivePresentation, point) -> DeviationReport:
    """Rank data for this presentation at an on-surface point.

    The deviation reported here is ambient minus rank for this particular
    presentation, an upper-bound witness rather than a minimum over all
    presentations.
    """
    rank = p.phi.rank_at_point(point)
    return DeviationReport(p.n, rank, p.n - rank)
