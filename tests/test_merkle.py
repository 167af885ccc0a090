"""Hash-tree tests against an independent oracle.

`oracle_root` below recomputes the root with plain hashlib and a
recursive reduction — a separate code path from the library's iterative
level builder — so the two implementations cross-check each other.
"""

import hashlib
import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcred import canonical
from vaxcred.errors import (
    CanonicalError,
    EmptyRequestError,
    UnknownLabelError,
    VaxError,
)
from vaxcred.merkle import (
    DisclosureProof,
    PiiTree,
    build_pii_tree,
    leaf_digest,
    prove_disclosure,
    verify_disclosure,
)


def _len4(b: bytes) -> bytes:
    return struct.pack(">I", len(b))


def oracle_leaf(label: str, value: str, salt: bytes) -> bytes:
    lb, vb = label.encode(), value.encode()
    return hashlib.sha256(b"\x00" + _len4(lb) + lb + _len4(vb) + vb + salt).digest()


def oracle_root(digests) -> bytes:
    if len(digests) == 1:
        return digests[0]
    nxt = [
        hashlib.sha256(b"\x01" + digests[i] + digests[i + 1]).digest()
        for i in range(0, len(digests) - 1, 2)
    ]
    if len(digests) % 2:
        nxt.append(digests[-1])
    return oracle_root(nxt)


def _entries(n):
    return [(f"label{i:02d}", f"value-{i}") for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
def test_root_matches_oracle(n, rng):
    tree = build_pii_tree(_entries(n), rng)
    expected = oracle_root([oracle_leaf(l, v, s) for l, v, s in tree.leaves])
    assert tree.root == expected


def test_leaf_digest_matches_oracle():
    salt = bytes(range(16))
    assert leaf_digest("dob", "1980-05-01", salt) == oracle_leaf(
        "dob", "1980-05-01", salt
    )


def test_leaves_sorted_and_salts_fresh(rng):
    tree = build_pii_tree([("zeta", "1"), ("alpha", "2"), ("mid", "3")], rng)
    assert list(tree.labels) == sorted(tree.labels)
    assert len({s for _, _, s in tree.leaves}) == 3


def test_duplicate_labels_rejected(rng):
    with pytest.raises(VaxError):
        build_pii_tree([("dob", "a"), ("dob", "b")], rng)


def test_empty_tree_rejected(rng):
    with pytest.raises(VaxError):
        build_pii_tree([], rng)


def test_all_subsets_of_eight_prove_and_verify(rng):
    tree = build_pii_tree(_entries(8), rng)
    for r in range(1, 9):
        for subset in itertools.combinations(tree.labels, r):
            proof = prove_disclosure(tree, subset)
            assert verify_disclosure(tree.root, proof)
            assert {l for l, _, _ in proof.disclosed} == set(subset)


@pytest.mark.parametrize("n", [1, 3, 5, 6])
def test_subsets_odd_sizes(n, rng):
    tree = build_pii_tree(_entries(n), rng)
    for r in range(1, n + 1):
        for subset in itertools.combinations(tree.labels, r):
            assert verify_disclosure(tree.root, prove_disclosure(tree, subset))


def test_verify_against_wrong_root(rng):
    tree = build_pii_tree(_entries(4), rng)
    proof = prove_disclosure(tree, ("label00",))
    other = build_pii_tree(_entries(4), rng)  # same labels, fresh salts
    assert not verify_disclosure(other.root, proof)


def test_single_bit_tamper_always_rejected(rng):
    tree = build_pii_tree(_entries(8), rng)
    proof = prove_disclosure(tree, ("label01", "label04", "label06"))
    wire = canonical.encode(proof.to_wire())
    rejected = 0
    total = len(wire) * 8
    for pos in range(len(wire)):
        for bit in range(8):
            blob = bytearray(wire)
            blob[pos] ^= 1 << bit
            try:
                mutated = DisclosureProof.from_bytes(bytes(blob))
            except VaxError:
                rejected += 1
                continue
            if not verify_disclosure(tree.root, mutated):
                rejected += 1
    assert rejected == total


def test_proof_reveals_nothing_undisclosed(rng):
    entries = [("dob", "1971-02-03"), ("name", "Pat Q. Example"), ("zip", "99999")]
    tree = build_pii_tree(entries, rng)
    proof = prove_disclosure(tree, ("dob",))
    wire = canonical.encode(proof.to_wire())
    for label, value, salt in tree.leaves:
        if label == "dob":
            continue
        assert value.encode() not in wire
        assert salt not in wire
        assert label.encode() not in wire


def test_unknown_label_and_empty_request(rng):
    tree = build_pii_tree(_entries(3), rng)
    with pytest.raises(UnknownLabelError):
        prove_disclosure(tree, ("label00", "nope"))
    with pytest.raises(EmptyRequestError):
        prove_disclosure(tree, ())


def test_proof_wire_round_trip(rng):
    tree = build_pii_tree(_entries(5), rng)
    proof = prove_disclosure(tree, ("label02", "label04"))
    again = DisclosureProof.from_bytes(canonical.encode(proof.to_wire()))
    assert verify_disclosure(tree.root, again)
    assert sorted(l for l, _, _ in again.disclosed) == ["label02", "label04"]
    assert verify_disclosure(tree.root, DisclosureProof.from_bytes(proof.to_bytes()))


def test_proof_wire_strictness(rng):
    tree = build_pii_tree(_entries(2), rng)
    proof = prove_disclosure(tree, ("label00",))
    mangled = dict(proof.to_wire())
    mangled["extra"] = 1
    with pytest.raises(CanonicalError):
        DisclosureProof.from_bytes(canonical.encode(mangled))


def test_verify_is_total_on_garbage(rng):
    tree = build_pii_tree(_entries(2), rng)
    proof = prove_disclosure(tree, ("label00",))
    assert not verify_disclosure(b"short", proof)
    assert not verify_disclosure(tree.root, "not a proof")
    assert not verify_disclosure(tree.root, None)
    # a malformed proof cannot be built by hand: the constructor refuses it
    with pytest.raises(CanonicalError):
        DisclosureProof(disclosed=(("a", "b", b"x" * 16),), paths=((),), root=b"y" * 31)
    # nor can one whose text has no UTF-8 form for the leaf hash
    for label, value in (("\udc80", "b"), ("a", "\ud800")):
        with pytest.raises(CanonicalError):
            DisclosureProof(disclosed=((label, value, b"x" * 16),), paths=((),),
                            root=tree.root)


def test_tree_rebuild_from_leaves_is_stable(rng):
    tree = build_pii_tree(_entries(6), rng)
    rebuilt = PiiTree.from_leaves(tree.leaves)
    assert rebuilt.root == tree.root


def test_from_leaves_enforces_order(rng):
    tree = build_pii_tree(_entries(3), rng)
    reversed_leaves = tuple(reversed(tree.leaves))
    with pytest.raises(CanonicalError):
        PiiTree.from_leaves(reversed_leaves)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_random_trees_match_oracle(n, seed):
    import random

    r = random.Random(seed)
    entries = [(f"k{i:02d}", f"v{r.randrange(10**6)}") for i in range(n)]
    tree = build_pii_tree(entries, r)
    expected = oracle_root([oracle_leaf(l, v, s) for l, v, s in tree.leaves])
    assert tree.root == expected
    k = r.randrange(1, n + 1)
    subset = tuple(sorted(r.sample([e[0] for e in entries], k)))
    assert verify_disclosure(tree.root, prove_disclosure(tree, subset))
