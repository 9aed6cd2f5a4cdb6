"""CNF encodings of the complete-labelling constraints.

Every argument i owns three consecutive variables: 3(i-1)+1 for in,
3(i-1)+2 for out, 3(i-1)+3 for undec. Each encoding always contains the
exactly-one-label clauses, the unit clauses forcing unattacked arguments in,
and (optionally) a final clause requiring at least one in-labelled argument;
between those it emits clause groups for a chosen subset of the six
labelling-condition terms. Six named encodings are provided, one per
correct term subset:

* C1  - all six terms
* C1a - both directions of in and out
* C1b - both directions of out and undec
* C1c - both directions of in and undec
* C2  - the three forward terms (label => condition)
* C3  - the three backward terms (condition => label)

Clause emission order is fixed (groups in a canonical sequence, arguments
by index, attackers by index) so serialized output is byte-stable.
"""

import operator
from enum import Enum

from .core import IN, OUT, UNDEC, Labelling
from .constraints import MINIMAL_CORRECT, Term


class VarLayout:
    """Variable numbering for k arguments: interleaved in/out/undec triples."""

    __slots__ = ("k",)

    def __init__(self, k):
        if k < 1:
            raise ValueError("layout needs at least one argument")
        self.k = k

    @property
    def num_vars(self):
        return 3 * self.k

    def in_var(self, i):
        return 3 * (i - 1) + 1

    def out_var(self, i):
        return 3 * (i - 1) + 2

    def undec_var(self, i):
        return 3 * (i - 1) + 3

    def role(self, var):
        """(argument index, label role) owning a variable."""
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"variable out of range: {var}")
        i, r = divmod(var - 1, 3)
        return i + 1, (IN, OUT, UNDEC)[r]


def check_literals(lits, num_vars):
    """Check the literals of a clause or an assumption list by the one
    literal rule of both backends: in order, each must be an integer and
    in 1..num_vars in absolute value, or ValueError names it. Returns the
    distinct literals as ints in first-seen order, and whether two of
    them are complementary."""
    seen = set()
    distinct = []
    complementary = False
    for lit in lits:
        try:
            lit = operator.index(lit)
        except TypeError:
            raise ValueError(f"literal is not an integer: {lit!r}") from None
        if lit == 0 or abs(lit) > num_vars:
            raise ValueError(f"literal out of range: {lit}")
        if -lit in seen:
            complementary = True
        elif lit not in seen:
            seen.add(lit)
            distinct.append(lit)
    return distinct, complementary


def normalize_clause(lits, num_vars):
    """Distinct literals of a clause over variables 1..num_vars, as a tuple
    in first-seen order (sessions watch the first two); None for a
    tautology. The literals must pass check_literals (ValueError)."""
    distinct, tautology = check_literals(lits, num_vars)
    return None if tautology else tuple(distinct)


class CnfFormula:
    """Immutable clause list over variables 1..num_vars.

    Construction normalizes every clause with normalize_clause: duplicate
    literals are dropped, tautologies are discarded, and empty clauses or
    out-of-range literals are rejected. Only ``encode``, whose clauses are
    normalized by construction, skips that pass.
    """

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars, clauses=()):
        if num_vars < 0:
            raise ValueError("negative variable count")
        self.num_vars = num_vars
        kept = []
        for clause in clauses:
            lits = normalize_clause(clause, num_vars)
            if lits == ():
                raise ValueError("empty clause")
            if lits is not None:
                kept.append(lits)
        self.clauses = tuple(kept)

    @classmethod
    def _normalized(cls, num_vars, clauses):
        """A formula over clauses its caller built normalized: non-empty
        tuples of distinct, in-range literals, none a tautology."""
        formula = cls.__new__(cls)
        formula.num_vars = num_vars
        formula.clauses = tuple(clauses)
        return formula

    @property
    def num_clauses(self):
        return len(self.clauses)

    def __eq__(self, other):
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self.num_vars == other.num_vars and self.clauses == other.clauses

    def __hash__(self):
        return hash((self.num_vars, self.clauses))

    def __repr__(self):
        return f"CnfFormula(num_vars={self.num_vars}, clauses={len(self.clauses)})"


class EncodingId(Enum):
    """Named clause-group compositions; C2 is the default everywhere."""

    C1 = "C1"
    C1A = "C1a"
    C1B = "C1b"
    C1C = "C1c"
    C2 = "C2"
    C3 = "C3"

    def __str__(self):
        return self.value


ENCODINGS = tuple(EncodingId)

# C1 takes every term; C1a, C1b, C1c, C2 and C3 are the five minimal correct
# subsets, which constraints.MINIMAL_CORRECT lists in that order.
ENCODING_TERMS = {EncodingId.C1: frozenset(Term),
                  **dict(zip(ENCODINGS[1:], MINIMAL_CORRECT))}


def encoding_from_string(s):
    try:
        return EncodingId(s)
    except ValueError:
        raise ValueError(f"unknown encoding: {s!r} (expected one of "
                         f"{', '.join(e.value for e in ENCODINGS)})") from None


def _attacked_args(af):
    return [i for i in range(1, af.k + 1) if af.is_attacked(i)]


def _clauses_exclusivity(af, v):
    for i in range(1, af.k + 1):
        I, O, U = v.in_var(i), v.out_var(i), v.undec_var(i)
        yield (I, O, U)
        yield (-I, -O)
        yield (-I, -U)
        yield (-O, -U)


def _clauses_unattacked(af, v):
    for i in range(1, af.k + 1):
        if not af.is_attacked(i):
            yield (v.in_var(i),)
            yield (-v.out_var(i),)
            yield (-v.undec_var(i),)


def _clauses_in_bwd(af, v):
    # all attackers out => in, contrapositive form: in or some attacker not out
    for i in _attacked_args(af):
        yield (v.in_var(i), *[-v.out_var(j) for j in af.attackers(i)])


def _clauses_in_fwd(af, v):
    # in => every attacker out
    for i in _attacked_args(af):
        for j in af.attackers(i):
            yield (-v.in_var(i), v.out_var(j))


def _clauses_out_bwd(af, v):
    # some attacker in => out
    for i in _attacked_args(af):
        for j in af.attackers(i):
            yield (-v.in_var(j), v.out_var(i))


def _clauses_out_fwd(af, v):
    # out => some attacker in
    for i in _attacked_args(af):
        yield (-v.out_var(i), *[v.in_var(j) for j in af.attackers(i)])


def _clauses_undec_bwd(af, v):
    # no attacker in and some attacker undec => undec; one clause per
    # (argument, undec-attacker candidate) pair, no sharing of subclauses;
    # a self-attacker's pair with itself is a tautology and is skipped
    for i in _attacked_args(af):
        U = v.undec_var(i)
        in_tail = tuple(v.in_var(j) for j in af.attackers(i))
        for m in af.attackers(i):
            if m != i:
                yield (U, -v.undec_var(m), *in_tail)


def _clauses_undec_fwd(af, v):
    # undec => no attacker in, and undec => some attacker undec; the latter
    # is a tautology for a self-attacker and is skipped
    for i in _attacked_args(af):
        U = v.undec_var(i)
        for j in af.attackers(i):
            yield (-U, -v.in_var(j))
        if not af.has_attack(i, i):
            yield (-U, *[v.undec_var(j) for j in af.attackers(i)])


# Canonical group sequence; the per-term groups fire only when the encoding
# includes that term.
_TERM_GROUPS = (
    (Term.IN_BWD, _clauses_in_bwd),
    (Term.IN_FWD, _clauses_in_fwd),
    (Term.OUT_BWD, _clauses_out_bwd),
    (Term.OUT_FWD, _clauses_out_fwd),
    (Term.UNDEC_BWD, _clauses_undec_bwd),
    (Term.UNDEC_FWD, _clauses_undec_fwd),
)


def encode(af, encoding=EncodingId.C2, nonempty=True):
    """CNF over the labelling variables whose models are exactly the complete
    labellings of af (restricted to a non-empty in-set when ``nonempty``).

    Every clause is built normalized: the two undec-group clauses that a
    self-attack makes tautological are never emitted, which leaves the
    model set unchanged.
    """
    terms = ENCODING_TERMS[encoding]
    v = VarLayout(af.k)
    clauses = []
    clauses.extend(_clauses_exclusivity(af, v))
    clauses.extend(_clauses_unattacked(af, v))
    for term, group in _TERM_GROUPS:
        if term in terms:
            clauses.extend(group(af, v))
    if nonempty:
        clauses.append(tuple(map(v.in_var, range(1, af.k + 1))))
    return CnfFormula._normalized(v.num_vars, clauses)


def standard_comments(af, encoding, source=None):
    """Comment lines documenting an encoded framework for DIMACS output."""
    lines = [f"complete-labelling encoding {encoding.value}"]
    if source:
        lines.append(f"source: {source}")
    lines.append("variables: argument i uses 3i-2 (in), 3i-1 (out), 3i (undec)")
    for i, name in enumerate(af.arguments, 1):
        lines.append(f"arg {i} = {name}")
    return lines


def to_dimacs(formula, comments=()):
    """Serialize a formula in DIMACS CNF, byte-deterministically."""
    lines = [f"c {c}" if c else "c" for c in comments]
    lines.append(f"p cnf {formula.num_vars} {formula.num_clauses}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text):
    """Parse DIMACS CNF text. Requires one problem line, before any clause.
    Tolerates clauses that span lines, a missing final 0, blank lines, and a
    '%' line, which ends the input as in SATLIB files. An empty clause is an
    error, not dropped."""
    num_vars = None
    declared_clauses = None
    clauses = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ValueError(f"line {lineno}: second problem line")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"] or \
                    not all(map(str.isdecimal, parts[2:])):
                raise ValueError(f"line {lineno}: bad problem line: {raw!r}")
            num_vars = int(parts[2])
            declared_clauses = int(parts[3])
            continue
        if num_vars is None:
            raise ValueError(f"line {lineno}: clause before problem line")
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: bad clause token in {raw!r}") from None
        for lit in lits:
            if lit:
                if abs(lit) > num_vars:
                    raise ValueError(
                        f"line {lineno}: literal out of range: {lit}")
                current.append(lit)
            elif current:
                clauses.append(current)
                current = []
            else:
                raise ValueError(f"line {lineno}: empty clause")
    if num_vars is None:
        raise ValueError("missing problem line")
    if current:
        clauses.append(current)  # tolerate a missing final 0
    if len(clauses) != declared_clauses:
        raise ValueError(f"problem line declares {declared_clauses} clauses, "
                         f"found {len(clauses)}")
    return CnfFormula(num_vars, clauses)


def satisfies(formula, model):
    """True iff the model (indexed by variable) satisfies every clause."""
    for clause in formula.clauses:
        if not any(model[lit] if lit > 0 else not model[-lit]
                   for lit in clause):
            return False
    return True


def model_to_labelling(layout, model):
    """Labelling encoded by a model; rejects models breaking label exclusivity."""
    labels = []
    for i in range(1, layout.k + 1):
        trio = (model[layout.in_var(i)], model[layout.out_var(i)],
                model[layout.undec_var(i)])
        if sum(map(bool, trio)) != 1:
            raise ValueError(f"model assigns argument {i} {sum(map(bool, trio))} labels")
        labels.append((IN, OUT, UNDEC)[[bool(x) for x in trio].index(True)])
    return Labelling(labels)
