"""Iterated bypass surgery at one disc, on a Diagram.

The disc straddles a glued edge at crossings gap, gap+1, gap+2. Its three
strands can be set to any of the configurations C0, C1, C2 among six fixed
chord endpoints just outside it, which lets a test walk the bypass triangle
C1 -> C2 -> C0 -> C1 on one diagram.
"""

from sqft.sutures import Diagram
from sqft.surface import GluingPair


def disc_externals(d: Diagram, edge: GluingPair, t: int) -> tuple[int, ...]:
    """The six chord endpoints just outside a bypass disc, C1 stub order.

    Usable for iterated surgery at one disc (set_disc_config) when they are
    six distinct points not themselves on the disc.
    """
    slot_a, slot_b, la, lb = d.edge_lists(edge)
    m = len(la)
    stubs = [la[t], la[t + 1], la[t + 2],
             lb[m - 1 - t], lb[m - 2 - t], lb[m - 3 - t]]
    ext = tuple(d.mate[s] for s in stubs)
    if len(set(ext)) != 6 or set(ext) & set(stubs):
        raise ValueError("disc externals are not six separate points")
    return ext


def set_disc_config(d: Diagram, edge: GluingPair, gap: int,
                    externals: tuple[int, ...], k: int) -> None:
    """Rewire the three disc strands among fixed externals to configuration
    C_k; C1 crosses the edge three times, C0 and C2 once."""
    slot_a, slot_b, la, lb = d.edge_lists(edge)
    ab, am, at_, bb, bm, bt = externals
    for e in externals:
        w = d.mate.get(e)
        if w is None:
            continue
        d.disconnect(e)
        if w in la:
            d.drop_point(slot_a, w)
        elif w in lb:
            d.drop_point(slot_b, w)
        elif w in externals:
            pass                        # a short chord between externals
        else:
            raise ValueError("disc content leaked outside the edge")
    m = len(d.order[slot_a])
    if k == 1:
        a_ids = [d.new_point(slot_a[0]) for _ in range(3)]
        b_ids = [d.new_point(slot_b[0]) for _ in range(3)]
        d.order[slot_a][gap:gap] = a_ids
        # crossing i sits at A position gap+i and B position (m+3)-1-(gap+i)
        d.order[slot_b][m - gap:m - gap] = list(reversed(b_ids))
        for aid, ext in zip(a_ids, (ab, am, at_)):
            d.connect(aid, ext)
        for bid, ext in zip(b_ids, (bb, bm, bt)):
            d.connect(bid, ext)
    else:
        na = d.new_point(slot_a[0])
        nb = d.new_point(slot_b[0])
        d.order[slot_a].insert(gap, na)
        d.order[slot_b].insert(m - gap, nb)
        if k == 2:
            d.connect(ab, na)
            d.connect(nb, bt)
            d.connect(am, at_)
            d.connect(bb, bm)
        elif k == 0:
            d.connect(at_, na)
            d.connect(nb, bb)
            d.connect(am, ab)
            d.connect(bm, bt)
        else:
            raise ValueError("k must be 0, 1, or 2")
