"""Exhaustive reference semantics.

Ground truth for testing the SAT pipeline: every extension query is answered
by scanning all 2^k argument subsets (or all 3^k labellings), with subsets
held as bitmasks so the scan stays fast up to the size cap. Independent of
the CNF encodings and the solver by construction.
"""

from itertools import product

from .core import (LABELS, SIZE_CAP, Labelling, _check_cap,
                   is_complete_labelling)

# 3^k labelling scans are pricier than 2^k subset scans; separate cap.
LABELLING_CAP = 12


def _bit_tables(af):
    """Per-argument attacker and attackee sets as bitmasks (bit i-1 = argument i)."""
    k = af.k
    attackers = [0] * (k + 1)
    attackees = [0] * (k + 1)
    for i, j in af.attacks:
        attackees[i] |= 1 << (j - 1)
        attackers[j] |= 1 << (i - 1)
    return attackers, attackees


def _mask_to_set(mask):
    out = set()
    i = 1
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _complete_masks(af, max_args):
    _check_cap(af, max_args)
    k = af.k
    attackers, attackees = _bit_tables(af)
    n = 1 << k
    # Unions over subset members, filled in by peeling the lowest bit.
    attacked_by = [0] * n
    attackers_of = [0] * n
    for m in range(1, n):
        low = m & -m
        b = low.bit_length()
        rest = m ^ low
        attacked_by[m] = attacked_by[rest] | attackees[b]
        attackers_of[m] = attackers_of[rest] | attackers[b]
    found = []
    for m in range(n):
        att = attacked_by[m]
        if att & m:
            continue  # not conflict-free
        if attackers_of[m] & ~att:
            continue  # some member is not defended
        complete = True
        for a in range(1, k + 1):
            # an argument whose attackers are all counter-attacked is defended
            if not (m >> (a - 1)) & 1 and not attackers[a] & ~att:
                complete = False
                break
        if complete:
            found.append(m)
    return found


def oracle_complete(af, max_args=SIZE_CAP):
    """All complete extensions, as a set of frozensets of indices."""
    return {_mask_to_set(m) for m in _complete_masks(af, max_args)}


def oracle_preferred(af, max_args=SIZE_CAP):
    """All preferred extensions: the maximal complete extensions."""
    masks = _complete_masks(af, max_args)
    maximal = []
    for m in masks:
        if not any(o != m and o | m == o for o in masks):
            maximal.append(m)
    return {_mask_to_set(m) for m in maximal}


def all_labellings(k):
    """Iterate every total labelling of k arguments, in a fixed order."""
    for combo in product(LABELS, repeat=k):
        yield Labelling(combo)


def oracle_complete_labellings(af, max_args=LABELLING_CAP):
    """All complete labellings, by scanning every total labelling."""
    _check_cap(af, max_args)
    return {lab for lab in all_labellings(af.k) if is_complete_labelling(af, lab)}
