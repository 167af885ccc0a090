"""Salted hash tree over personal information, with disclosure proofs.

Leaves are (label, value, salt) triples sorted by label; each leaf digest
commits to its salt so the tree root reveals nothing about the values.
A disclosure proof carries only the consented triples plus sibling
digests, so verifiers recompute the root without seeing anything else.

Construction rules: labels unique, leaves sorted by label before hashing,
an unpaired node is promoted unchanged to the next level (no duplication).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import canonical
from .canonical import Field
from .credentials import pii_pairs
from .crypto import DIGEST_LEN, SALT_LEN, TAG_LEAF, TAG_NODE, new_salt, tagged_hash
from .errors import CanonicalError, EmptyRequestError, UnknownLabelError


def leaf_digest(label: str, value: str, salt: bytes) -> bytes:
    label_b = label.encode("utf-8")
    value_b = value.encode("utf-8")
    payload = (
        struct.pack(">I", len(label_b))
        + label_b
        + struct.pack(">I", len(value_b))
        + value_b
        + salt
    )
    return tagged_hash(TAG_LEAF, payload)


def node_digest(left: bytes, right: bytes) -> bytes:
    return tagged_hash(TAG_NODE, left, right)


def _is_text(value) -> bool:
    """A str that has a UTF-8 form, so that ``leaf_digest`` can hash it."""
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# a (label, value, salt) leaf, as disclosure proofs and wallet files hold it
LEAF = canonical.tuple_of(canonical.TEXT, canonical.TEXT, canonical.fixed(SALT_LEN))


def _leaf(item) -> tuple:
    """``item`` if it is a (label, value, salt) triple that ``leaf_digest``
    can hash; CanonicalError otherwise."""
    if not (isinstance(item, tuple) and len(item) == 3 and _is_text(item[0])
            and _is_text(item[1]) and isinstance(item[2], bytes) and len(item[2]) == SALT_LEN):
        raise CanonicalError("a leaf is (label, value, 16-byte salt), its text UTF-8")
    return item


@dataclass(frozen=True)
class PiiTree:
    """Full tree: leaves with salts plus every internal level."""

    leaves: tuple  # of (label, value, salt)
    levels: tuple  # levels[0] = leaf digests, levels[-1] = (root,)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _, _ in self.leaves)

    @classmethod
    def from_leaves(cls, leaves) -> "PiiTree":
        """Rebuild the level table from stored (label, value, salt) triples."""
        leaves = tuple(map(_leaf, leaves))
        pairs = tuple((l, v) for l, v, _ in leaves)
        if pii_pairs(pairs) != pairs:
            raise CanonicalError("leaves must be sorted by label")
        level = [leaf_digest(l, v, s) for l, v, s in leaves]
        levels = [tuple(level)]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(node_digest(level[i], level[i + 1]))
            if len(level) % 2 == 1:
                nxt.append(level[-1])
            level = nxt
            levels.append(tuple(level))
        return cls(leaves=leaves, levels=tuple(levels))


def build_pii_tree(entries, rng=None) -> PiiTree:
    """Commit to (label, value) pairs with a fresh random salt per leaf."""
    return PiiTree.from_leaves((l, v, new_salt(rng)) for l, v in pii_pairs(entries))


@dataclass(frozen=True)
class DisclosureProof(canonical.Wire):
    """Consented (label, value, salt) triples plus per-leaf sibling paths.

    Each path entry is (sibling_digest, sibling_is_left). Undisclosed
    leaves appear only as digests inside the paths.
    """

    disclosed: tuple  # of (label, value, salt)
    paths: tuple  # per disclosed leaf: tuple of (digest, bool)
    root: bytes

    TABLE = canonical.Table(
        "disclosure proof",
        Field("disclosed", canonical.list_of(LEAF)),
        Field("paths", canonical.list_of(canonical.list_of(
            canonical.tuple_of(canonical.fixed(DIGEST_LEN), canonical.BOOL)))),
        Field("root", canonical.fixed(DIGEST_LEN)),
    )

    def __post_init__(self):
        if not isinstance(self.root, bytes) or len(self.root) != DIGEST_LEN:
            raise CanonicalError("bad proof root")
        if not isinstance(self.disclosed, tuple) or not isinstance(self.paths, tuple):
            raise CanonicalError("malformed disclosure proof")
        for item in self.disclosed:
            _leaf(item)
        for path in self.paths:
            if not isinstance(path, tuple):
                raise CanonicalError("bad path")
            for step in path:
                if not isinstance(step, tuple) or len(step) != 2:
                    raise CanonicalError("bad path step")
                sib, left = step
                if not isinstance(sib, bytes) or len(sib) != DIGEST_LEN:
                    raise CanonicalError("bad sibling digest")
                if not isinstance(left, bool):
                    raise CanonicalError("bad side flag")
        if len(self.paths) != len(self.disclosed):
            raise CanonicalError("path count mismatch")
        labels = [l for l, _, _ in self.disclosed]
        if len(set(labels)) != len(labels):
            raise CanonicalError("duplicate disclosed label")


def prove_disclosure(tree: PiiTree, labels) -> DisclosureProof:
    """Proof for exactly the requested labels; empty requests are rejected
    (presenting nothing is a status-only presentation, not a disclosure)."""
    requested = sorted(set(labels))
    if not requested:
        raise EmptyRequestError("disclosure request is empty")
    index_of = {label: i for i, (label, _, _) in enumerate(tree.leaves)}
    for label in requested:
        if label not in index_of:
            raise UnknownLabelError(f"label {label!r} not in tree")
    disclosed = []
    paths = []
    for label in requested:
        idx = index_of[label]
        disclosed.append(tree.leaves[idx])
        steps = []
        for level in tree.levels[:-1]:
            sibling = idx ^ 1
            if sibling < len(level):
                steps.append((level[sibling], sibling < idx))
            idx //= 2
        paths.append(tuple(steps))
    return DisclosureProof(disclosed=tuple(disclosed), paths=tuple(paths), root=tree.root)


def verify_disclosure(root: bytes, proof: DisclosureProof) -> bool:
    """Total check: recomputes the root for every disclosed leaf.
    Any tampering or malformation yields False, never an exception."""
    if not isinstance(proof, DisclosureProof) or proof.root != root or not proof.disclosed:
        return False
    for (label, value, salt), path in zip(proof.disclosed, proof.paths):
        digest = leaf_digest(label, value, salt)
        for sibling, sibling_is_left in path:
            if sibling_is_left:
                digest = node_digest(sibling, digest)
            else:
                digest = node_digest(digest, sibling)
        if digest != root:
            return False
    return True
