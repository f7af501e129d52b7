"""Linear-space representations for structured group classes.

CyclicRep answers queries with three array reads; CompositeRep handles
semidirect products of an abelian normal part by a cyclic complement in
four reads by keeping the action in coordinate space; SimpleRep walks a
short fixed path through a Cayley graph with a small generating set.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .base import (PreconditionError, Representation, ValidationError,
                   _const, check_element_id, id_dtype)
from .groups import as_group
from .structure import (AbelianCoordinates, MixedRadix, conjugacy_classes,
                        find_semidirect_decomposition,
                        find_zgroup_decomposition, is_simple, is_z_group)


class CyclicRep(Representation):
    """Exponent table for a cyclic group: x*y = B[(F[x] + F[y]) % n].

    ``F_[x-1]`` holds the exponent of x over the chosen generator and
    ``B_[i]`` the element with exponent i, held at the id width.  2n + 2
    slots, three array reads per query.
    """

    rep_kind = "cyclic"

    def __init__(self, generator: int | None = None):
        self.generator = generator

    def fit(self, group):
        G = as_group(group)
        gen = self.generator
        if gen is None:
            orders = G.element_orders()
            hits = np.nonzero(orders == G.n)[0]
            if not hits.size:
                raise PreconditionError("group is not cyclic")
            gen = int(hits[0]) + 1
        else:
            gen = check_element_id(gen, G.n)
            order = int(G.element_orders()[gen - 1])
            if order != G.n:
                raise PreconditionError(
                    f"element {gen} has order {order}, not {G.n}")
        powers = G.powers(gen)
        F = np.empty(G.n, dtype=np.int64)
        F[powers - 1] = np.arange(G.n)
        B = powers.astype(id_dtype(G.n))
        F.setflags(write=False)
        B.setflags(write=False)
        self.n_ = G.n
        self.generator_ = gen
        self.F_ = F
        self.B_ = B
        return self

    _reads = {"forward": 2, "backward": 1}

    def _bound_arrays(self, view):
        return {"F": view(self.F_), "B": view(self.B_), "n": self.n_}

    def _template(self):
        return ["return B[(F[x - 1] + F[y - 1]) % +n]"]

    def space_slots(self) -> dict[str, int]:
        self._require_fitted("F_")
        return {"forward": self.n_, "backward": self.n_, "meta": 2}


class CompositeRep(Representation):
    """Coordinate representation of G = A x| <b> with abelian A, cyclic <b>.

    Elements are encoded as packed coordinate tuples: the factors of A
    (one per prime-power basis order, or a single factor when A is taken
    in cyclic power order) followed by the exponent of b.  The forward
    array maps ids to packed tuples; the backward array, held at the id
    width, is the dense inverse over the mixed-radix coordinate box; the
    action array maps (b-exponent, flat A-coordinate) to the image flat
    A-coordinate.  One query costs two forward reads, one action read,
    and one backward read; the in-coordinate products of the abelian
    parts are pure modular arithmetic.
    """

    rep_kind = "composite"

    def __init__(self, mode: str = "auto"):
        self.mode = mode

    def fit(self, group):
        G = as_group(group)
        if not isinstance(self.mode, str) or self.mode not in ("zgroup",
                                                               "auto"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == "zgroup" or is_z_group(G):
            dec = find_zgroup_decomposition(G)
        else:
            dec = find_semidirect_decomposition(G)
        m_a, d = dec.a_order, dec.b_order

        if dec.cyclic_a_generator is not None:
            a_sizes = (m_a,)
            a_coords = np.arange(m_a, dtype=np.int64)[:, None]
            local_of_flat = np.arange(1, m_a + 1, dtype=np.int64)
        else:
            # A is not cyclic, so it has at least two factors
            ac = AbelianCoordinates(dec.spec.A)
            a_sizes = ac.orders
            a_coords = ac.coords
            local_of_flat = ac.element_of_flat

        # a forward word packs the A coordinates with the b-exponent on top;
        # its flat index over the whole box is the backward position
        sizes = a_sizes + (d,)
        word = MixedRadix(sizes)
        codec = MixedRadix(a_sizes)
        n = G.n
        fields = tuple(a_coords[dec.a_of[1:]].T) + (dec.j_of[1:],)
        forward = word.pack(fields)
        backward = np.zeros(m_a * d, dtype=id_dtype(n))
        backward[word.flat(fields)] = np.arange(1, n + 1)

        # action[j, flat] is the flat index of the image local id
        act = np.asarray(dec.spec.action, dtype=np.int64)
        action = codec.flat(a_coords.T)[act[:, local_of_flat - 1] - 1]

        for arr in (forward, backward, action):
            arr.setflags(write=False)
        self.n_ = n
        self.sizes_ = sizes
        self.codec_ = codec
        self.d_ = d
        self.a_order_ = m_a
        self.forward_ = forward
        self.backward_ = backward
        self.action_ = action
        return self

    _reads = {"forward": 2, "action": 1, "backward": 1}

    def _bound_arrays(self, view):
        return {"forward": view(self.forward_),
                "backward": view(self.backward_),
                "action": view(self.action_), "d": self.d_}

    def _template(self):
        A = self.codec_
        return [
            "w1 = forward[x - 1]",
            "w2 = forward[y - 1]",
            f"j1 = w1 >> {A.bits}",
            # the action maps flat A indices; its image is added packed
            f"f3 = action[j1, {A.expr('index', 'w2')}]",
            f"a3 = {A.expr('pack', A.terms('unflat', 'f3'))}",
            f"w3 = {A.expr('add', 'w1', 'a3')}",
            f"return backward[{A.expr('index', 'w3')} * d"
            f" + (j1 + (w2 >> {A.bits})) % +d]"]

    def space_slots(self) -> dict[str, int]:
        self._require_fitted("forward_")
        return {
            "forward": self.n_,
            "backward": self.n_,
            "action": self.d_ * self.a_order_,
            "meta": 3 + len(self.sizes_),      # n, d, |A|, factor sizes
        }


def _label_bits(s: int) -> int:
    """The width of one edge label of a path over ``s`` generators."""
    return max((s - 1).bit_length(), 1)


class SimpleRep(Representation):
    """Shortest-path representation over a small generating set.

    For a nonabelian simple group, which is 2-generated, the builder keeps
    the pair whose Cayley graph has the least diameter (ties to the
    lexicographically first pair), growing the balls of every pair (a, b)
    with the same a together, level by level; one level-order BFS then
    stores each element's shortest path from the identity as packed edge
    labels.  A query folds the left operand through the n x |S| step table,
    held at the id width, along the right operand's path, whose length is
    held at the width of the diameter.  Abelian simple groups
    (prime order) delegate to :class:`CyclicRep`.
    """

    rep_kind = "simple"

    def fit(self, group):
        G = as_group(group)
        if not is_simple(G):
            raise PreconditionError("group is not simple")
        if G.is_abelian():
            self.n_ = G.n
            self.cyclic_ = CyclicRep().fit(G)
            return self
        self.cyclic_ = None

        t = G.table
        n = G.n
        # Conjugating a pair maps its Cayley graph isomorphically, so the
        # first minimum-diameter pair starts with the least member of its
        # conjugacy class; only a strictly smaller diameter replaces it.
        best = None                      # (diameter, gens)
        for cls in conjugacy_classes(G):
            a = cls[0]
            if a == G.identity:
                continue
            hit = _least_diameter(G, a, n if best is None else best[0])
            if hit is not None:
                best = (hit[0], (a, hit[1]))
        if best is None:
            raise PreconditionError("no generating pair found")
        diameter, gens = best

        wl = _label_bits(len(gens))
        dist, path = _bfs_paths(t, G.identity, gens, wl)
        plen = dist.astype(id_dtype(diameter))
        M = np.ascontiguousarray(t[:, np.array(gens, dtype=np.int64) - 1],
                                 dtype=id_dtype(n))
        for arr in (path, plen, M):
            arr.setflags(write=False)
        self.n_ = n
        self.generators_ = gens
        self.diameter_ = int(diameter)
        self.label_bits_ = wl
        self.path_ = path
        self.path_len_ = plen
        self.M_ = M
        return self

    def _bound_arrays(self, view):
        if self.cyclic_ is not None:
            return self.cyclic_._bound_arrays(view)
        return {"path": view(self.path_), "path_len": view(self.path_len_),
                "M": view(self.M_)}

    def _template(self):
        """The fold along y's path, for one pair of ids: the batch kernel
        folds arrays itself (``_fold``)."""
        if self.cyclic_ is not None:
            return self.cyclic_._template()
        wl = self.label_bits_
        return [
            "packed = path[y - 1]",
            "for _ in range(path_len[y - 1]):",
            f"    x = M[x - 1, packed & {(1 << wl) - 1}]",
            f"    packed >>= {wl}",
            "return x"]

    @cached_property
    def _kernel(self):
        """The batch query: the delegate's rendered one, or the fold."""
        if self.cyclic_ is not None:
            return self._render(self._args, self._template(), "batch")
        return self._fold

    def _fold(self, x, y) -> np.ndarray:
        """Fold the left operands ``x`` along the paths of the 1-D int64 ``y``.

        ``x`` has y's shape, or the shape (r, 1) of a row block, whose
        columns need no sort.  A stable (radix) argsort orders y by path
        length, so the entries whose path is longer than ``pos`` are a
        suffix, found by ``searchsorted``.  Each step folds only that suffix,
        through the flat step table at ``(cur - 1) * |S| + label``, in an
        int64 copy of ``x`` that cannot wrap at the id width, with 0-d int64
        constants (``base._const``); the results are scattered back.
        """
        steps = self.path_len_[y - 1]
        order = np.argsort(steps, kind="stable")
        packed = self.path_[y[order] - 1]
        cur = x[order] if x.ndim == 1 else np.repeat(x, len(y), axis=1)
        starts = np.searchsorted(steps[order], np.arange(self.diameter_),
                                 side="right")
        flat, wl = self.M_.reshape(-1), self.label_bits_
        one, g, mask = map(_const, (1, len(self.generators_), (1 << wl) - 1))
        for pos, lo in enumerate(starts.tolist()):
            cur[..., lo:] = flat[(cur[..., lo:] - one) * g
                                 + (packed[lo:] >> _const(pos * wl) & mask)]
        out = np.empty_like(cur)
        out[..., order] = cur
        return out

    def _count(self, ledger, y) -> None:
        """The path and its length, then one table step per label."""
        if self.cyclic_ is not None:
            return self.cyclic_._count(ledger, y)
        ledger.count("forward", 2)
        ledger.count("table", int(self.path_len_[y - 1]))

    def space_slots(self) -> dict[str, int]:
        self._require_fitted("n_")
        if self.cyclic_ is not None:
            slots = dict(self.cyclic_.space_slots())
            slots["meta"] = slots.get("meta", 0) + 1
            return slots
        return {
            "path": self.n_,
            "path_len": self.n_,
            "steps": self.n_ * len(self.generators_),
            "generators": len(self.generators_),
            "meta": 3,                   # n, |S|, diameter
        }

    def probe_bounds(self) -> tuple[int, int]:
        self._require_fitted("n_")
        if self.cyclic_ is not None:
            return self.cyclic_.probe_bounds()
        return (2, 2 + self.diameter_)


def _least_diameter(G, a, bound) -> tuple[int, int] | None:
    """(d, b) for the least b > a, b != e, whose pair (a, b) gives the least
    Cayley-graph diameter d, if that diameter is below ``bound``; else None.

    Row k of the bool matrix R holds the elements that words of length at
    most L in (a, b_k) reach.  One level extends every row at once by a
    and by its own b_k, as gathers through x -> x*a^-1 and x -> x*b_k^-1.
    A row that stops growing spans a proper subgroup and is dropped.
    """
    t, n, e = G.table, G.n, G.identity
    bs = np.setdiff1d(np.arange(a + 1, n + 1), [e])
    back_a = t[:, G.inverse[a - 1] - 1] - 1
    # row k gathers x*b_k^-1 from itself: offsets into the flattened R
    flat = t[:, G.inverse[bs - 1] - 1].T - 1 + n * np.arange(bs.size)[:, None]
    R = np.zeros((bs.size, n), dtype=bool)
    R[:, e - 1] = True
    size = np.ones(bs.size, dtype=np.int64)
    for level in range(1, bound):
        R |= R[:, back_a] | R.take(flat)
        count = np.count_nonzero(R, axis=1)
        full = count == n
        if full.any():
            return level, int(bs[full.argmax()])
        keep = np.flatnonzero(count > size)
        if keep.size < bs.size:
            flat = flat[keep] - n * (keep - np.arange(keep.size))[:, None]
            R, bs = R[keep], bs[keep]
        size = count[keep]
        if not bs.size:
            break
    return None


def _bfs_paths(t, identity, gens, wl):
    """(dist, path) from a BFS over the Cayley graph on ``gens``, one
    level at a time; ``path[g-1]`` packs the labels from the identity to g,
    ``wl`` bits each, the first step lowest.

    A level's products are listed frontier element by frontier element,
    generators in index order, and each new element keeps its first
    occurrence: the parent and label a FIFO queue would record.  The next
    frontier stays in that first-found order.
    """
    cols = np.asarray(gens, dtype=np.int64) - 1
    dist = np.full(len(t), -1, dtype=np.int64)
    path = np.zeros(len(t), dtype=np.int64)
    dist[identity - 1] = 0
    frontier = np.array([identity - 1])
    level = 0
    while frontier.size:
        level += 1
        prods = t[frontier[:, None], cols].ravel() - 1
        new, first = np.unique(prods, return_index=True)
        first = np.sort(first[dist[new] < 0])
        new = prods[first]
        dist[new] = level
        parent = frontier[first // cols.size]
        path[new] = path[parent] | (first % cols.size) << ((level - 1) * wl)
        frontier = new
    return dist, path
