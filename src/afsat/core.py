"""Core model for abstract argumentation frameworks.

A framework is a finite directed graph over named arguments; an edge (i, j)
means argument i attacks argument j. Arguments are addressed by 1-based
declaration index everywhere, which keeps the mapping to CNF variables and
file formats stable. Extensions are plain ``frozenset`` objects of indices;
labellings are total in/out/undec assignments.

The predicates in this module are direct transcriptions of the standard
definitions (conflict-freeness, acceptability, admissible / complete /
preferred extensions, complete labellings). They are intentionally naive:
they exist as the readable ground truth that the exhaustive oracle and the
SAT pipeline are tested against.
"""

import operator
import re

IN = "in"
OUT = "out"
UNDEC = "undec"
LABELS = (IN, OUT, UNDEC)

# Exhaustive subset scans refuse to run above this many arguments unless the
# caller raises the cap explicitly.
SIZE_CAP = 20

# argument-name syntax; both file formats build their patterns from it
NAME_PATTERN = r"[A-Za-z0-9_]+"
NAME_RE = re.compile(NAME_PATTERN)


class SizeCapExceeded(RuntimeError):
    """An exhaustive check would scan more subsets than the cap allows."""


def _check_cap(af, max_args):
    if af.k > max_args:
        raise SizeCapExceeded(
            f"{af.k} arguments exceed the cap of {max_args} for exhaustive scans")


class ArgumentationFramework:
    """Immutable attack graph over named arguments.

    ``arguments`` is the declaration-ordered tuple of names and ``attacks``
    a frozenset of (attacker, target) index pairs, both 1-based. Self
    attacks are allowed; an empty argument list is not.
    """

    __slots__ = ("arguments", "attacks", "_index", "_attackers", "_attackees")

    def __init__(self, arguments, attacks=()):
        names = tuple(arguments)
        if not names:
            raise ValueError("a framework needs at least one argument")
        index = {}
        for i, name in enumerate(names, start=1):
            if not isinstance(name, str) or not NAME_RE.fullmatch(name):
                raise ValueError(f"bad argument name: {name!r}")
            if name in index:
                raise ValueError(f"duplicate argument name: {name!r}")
            index[name] = i
        k = len(names)
        pairs = set()
        for pair in attacks:
            i, j = pair
            try:
                i, j = operator.index(i), operator.index(j)
            except TypeError:
                raise ValueError(
                    f"attack endpoint is not an integer: {pair!r}") from None
            if not (1 <= i <= k and 1 <= j <= k):
                raise ValueError(f"attack endpoint out of range: {pair!r}")
            pairs.add((i, j))
        self._build(names, index, pairs)

    @classmethod
    def _checked(cls, names, index, pairs):
        """A framework from input its caller has already checked: a
        non-empty tuple of valid, distinct names, their ``{name: index}``
        dict, and (attacker, target) int pairs inside 1..k, repeats
        allowed. The parsers and the enumerator's subframeworks use it."""
        af = cls.__new__(cls)
        af._build(names, index, pairs)
        return af

    def _build(self, names, index, pairs):
        self.arguments = names
        self.attacks = attacks = frozenset(pairs)
        self._index = index
        k = len(names)
        attackers = [[] for _ in range(k + 1)]
        attackees = [[] for _ in range(k + 1)]
        # pairs often come in order already, which sorted() finds in one
        # pass; the set's hash order would cost a full sort
        for i, j in sorted(pairs if len(pairs) == len(attacks) else attacks):
            attackers[j].append(i)
            attackees[i].append(j)
        self._attackers = tuple(map(tuple, attackers))
        self._attackees = tuple(map(tuple, attackees))

    @classmethod
    def from_names(cls, arguments, attack_names=()):
        """Build a framework from (attacker_name, target_name) pairs."""
        names = tuple(arguments)
        index = {name: i for i, name in enumerate(names, start=1)}
        pairs = []
        for a, b in attack_names:
            if a not in index:
                raise ValueError(f"attack references unknown argument: {a!r}")
            if b not in index:
                raise ValueError(f"attack references unknown argument: {b!r}")
            pairs.append((index[a], index[b]))
        return cls(names, pairs)

    @property
    def k(self):
        """Number of arguments."""
        return len(self.arguments)

    def index(self, name):
        """1-based index of a named argument."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no argument named {name!r}") from None

    def name(self, i):
        """Name of the argument with 1-based index i."""
        return self.arguments[i - 1]

    def attackers(self, i):
        """Indices attacking i, in ascending order."""
        return self._attackers[i]

    def attackees(self, i):
        """Indices attacked by i, in ascending order."""
        return self._attackees[i]

    def is_attacked(self, i):
        return bool(self._attackers[i])

    def has_attack(self, i, j):
        return (i, j) in self.attacks

    def __eq__(self, other):
        if not isinstance(other, ArgumentationFramework):
            return NotImplemented
        return self.arguments == other.arguments and self.attacks == other.attacks

    def __hash__(self):
        return hash((self.arguments, self.attacks))

    def __repr__(self):
        return (f"ArgumentationFramework({list(self.arguments)!r}, "
                f"{sorted(self.attacks)!r})")


class Labelling:
    """Total assignment of in/out/undec to every argument, by index."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a labelling needs at least one argument")
        for lab in labels:
            if lab not in LABELS:
                raise ValueError(f"bad label: {lab!r}")
        self.labels = labels

    @classmethod
    def from_dict(cls, af, mapping):
        """Build from a {name: label} dict covering every argument."""
        missing = [n for n in af.arguments if n not in mapping]
        if missing:
            raise ValueError(f"labelling misses arguments: {missing}")
        return cls(mapping[n] for n in af.arguments)

    def label(self, i):
        return self.labels[i - 1]

    def in_args(self):
        return frozenset(i for i, lab in enumerate(self.labels, 1) if lab == IN)

    def out_args(self):
        return frozenset(i for i, lab in enumerate(self.labels, 1) if lab == OUT)

    def undec_args(self):
        return frozenset(i for i, lab in enumerate(self.labels, 1) if lab == UNDEC)

    def as_dict(self, af):
        return {af.name(i): lab for i, lab in enumerate(self.labels, 1)}

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, Labelling):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Labelling({list(self.labels)!r})"


def is_conflict_free(af, s):
    """True iff no member of s attacks a member of s."""
    s = frozenset(s)
    for j in s:
        for i in af.attackers(j):
            if i in s:
                return False
    return True


def is_acceptable(af, a, s):
    """True iff every attacker of a is attacked by some member of s."""
    s = frozenset(s)
    for b in af.attackers(a):
        if not any(c in s for c in af.attackers(b)):
            return False
    return True


def is_admissible(af, s):
    """True iff s is conflict-free and defends all its members."""
    s = frozenset(s)
    if not is_conflict_free(af, s):
        return False
    return all(is_acceptable(af, a, s) for a in s)


def is_complete(af, s):
    """True iff s is admissible and contains every argument it defends."""
    s = frozenset(s)
    if not is_admissible(af, s):
        return False
    for a in range(1, af.k + 1):
        if a not in s and is_acceptable(af, a, s):
            return False
    return True


def is_preferred(af, s, max_args=SIZE_CAP):
    """True iff s is admissible and no strict superset of s is admissible.

    Scans all supersets, so it refuses frameworks above ``max_args``.
    """
    _check_cap(af, max_args)
    s = frozenset(s)
    if not is_admissible(af, s):
        return False
    others = [a for a in range(1, af.k + 1) if a not in s]
    for mask in range(1, 1 << len(others)):
        extra = {others[t] for t in range(len(others)) if (mask >> t) & 1}
        if is_admissible(af, s | extra):
            return False
    return True


def is_complete_labelling(af, lab):
    """Check the complete-labelling conditions at every argument.

    in requires all attackers out; out requires an in attacker; undec
    requires no in attacker and at least one undec attacker. On a total
    labelling these three together are equivalent to the usual
    if-and-only-if formulation.
    """
    if len(lab) != af.k:
        raise ValueError("labelling size does not match the framework")
    for a in range(1, af.k + 1):
        atts = af.attackers(a)
        la = lab.label(a)
        if la == IN:
            if any(lab.label(b) != OUT for b in atts):
                return False
        elif la == OUT:
            if not any(lab.label(b) == IN for b in atts):
                return False
        else:
            if any(lab.label(b) == IN for b in atts):
                return False
            if not any(lab.label(b) == UNDEC for b in atts):
                return False
    return True


def labelling_from_extension(af, s):
    """Labelling induced by an extension: members in, attacked out, rest undec."""
    s = frozenset(s)
    attacked = set()
    for i in s:
        attacked.update(af.attackees(i))
    labels = []
    for a in range(1, af.k + 1):
        if a in s:
            labels.append(IN)
        elif a in attacked:
            labels.append(OUT)
        else:
            labels.append(UNDEC)
    return Labelling(labels)


def extension_from_labelling(lab):
    """The in-labelled arguments, as an extension."""
    return lab.in_args()
