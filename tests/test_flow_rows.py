"""The assignment networks have one row per agent class, not one per agent.

colors-ntcoal routes (color, type) classes with supply n_ct onto the
guessed seats, and own-nash routes the types of the color it places, so
the networks, and the flow work, are the same at n=60 and n=600 when the
class structure is.
"""

from hdg import colors_ntcoal, ownhdg
from hdg.core import NamedFamily, TierList, make_instance
from hdg.stability import IS, NS, check_outcome

from fixtures import sweep_game


def record_networks(monkeypatch, module):
    nets = []
    real = module.max_flow

    def recording(net):
        nets.append(net)
        return real(net)

    monkeypatch.setattr(module, "max_flow", recording)
    return nets


def scaled(counts, scale):
    """Colors and types with counts[(color, type)] * scale agents each."""
    pairs = [pair for pair, k in sorted(counts.items()) for _ in range(k * scale)]
    return [c for c, _ in pairs], [t for _, t in pairs]


def alone_first(gamma):
    return TierList([[tuple(int(c == i) for c in range(gamma)) for i in range(gamma)]])


def test_ntcoal_rows_are_the_classes(monkeypatch):
    counts = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 1, (2, 1): 1}
    prefs = {0: alone_first(3), 1: alone_first(3)}
    nets = record_networks(monkeypatch, colors_ntcoal)
    rows = {}
    for scale in (10, 100):
        colors, types = scaled(counts, scale)
        inst = make_instance(colors, prefs, types=types, sigma=3, rho2=2)
        nets.clear()
        out = colors_ntcoal.solve_colors_ntcoal(inst, NS)
        assert out is not None and check_outcome(inst, out, NS).stable
        assert nets and all(len(net.supplies) == len(inst.present_pairs) == 5 for net in nets)
        rows[inst.n] = [len(net.supplies) for net in nets]
    assert rows[60] == rows[600]


def test_ntcoal_blocker_demands(monkeypatch):
    # Agents of type 0 (color 0) rank a (1, 1) palette first, then (2, 1),
    # then alone; the one type-1 agent (color 1) ranks (1, 1) first, then
    # alone.  Every color-0 agent left alone would join the mixed pair, so
    # no outcome is Nash stable, but the pair is individually stable when
    # one of its members refuses the joiner: the witness needs a blocker.
    prefs = {0: TierList([[(1, 1)], [(2, 1)], [(1, 0)]]), 1: TierList([[(1, 1)], [(0, 1)]])}
    nets = record_networks(monkeypatch, colors_ntcoal)
    seated = []
    real_try = colors_ntcoal._try_flow

    def trying(instance, guess, *rest):
        out = real_try(instance, guess, *rest)
        if out is not None:
            seated.append(guess)
        return out

    monkeypatch.setattr(colors_ntcoal, "_try_flow", trying)
    rows = {}
    for n in (60, 600):
        colors = [0] * (n - 1) + [1]
        inst = make_instance(colors, prefs, types=colors, sigma=3, rho2=1)
        assert colors_ntcoal.solve_colors_ntcoal(inst, NS) is None
        nets.clear()
        seated.clear()
        out = colors_ntcoal.solve_colors_ntcoal(inst, IS)
        assert out is not None and check_outcome(inst, out, IS).stable
        assert len(seated) == 1 and seated[0].blockers
        assert all(len(net.supplies) == len(inst.present_pairs) == 2 for net in nets)
        rows[n] = [(len(net.supplies), len(net.slot_caps)) for net in nets]
    assert rows[60] == rows[600]


def test_ntcoal_flow_counts_on_the_sweep_games(monkeypatch):
    # Screened guesses never reach max_flow: sending every
    # guess there took 943 (p0) and 953 (p1) flows on n=10 IS, and the
    # NS flow count does not move with n.  Past n=16 both games have no
    # IS outcome; refinement by refinement the walk took 43 (p0) and 35
    # (p1) flows to show it, and the relaxed family networks take fewer,
    # as many at n=48 as at n=24.
    nets = record_networks(monkeypatch, colors_ntcoal)
    for profile, walked in ((0, 43), (1, 35)):
        nets.clear()
        assert colors_ntcoal.solve_colors_ntcoal(sweep_game(profile, 10, 2), IS) is not None
        assert 0 < len(nets) < 100
        for notion, sizes in ((NS, (16, 32, 64)), (IS, (24, 32, 48))):
            counts = []
            for n in sizes:
                nets.clear()
                colors_ntcoal.solve_colors_ntcoal(sweep_game(profile, n, 2), notion)
                counts.append(len(nets))
            assert counts == [counts[0]] * 3
        assert counts[0] < walked


def own_alone_first(color):
    return NamedFamily("own_ratio_tiers", {"color": color, "tiers": [[[1, 1]], [[1, 2]]]})


def test_own_nash_rows_are_the_types_of_the_placed_color(monkeypatch):
    counts = {(0, 0): 2, (0, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1}
    prefs = {0: own_alone_first(0), 1: own_alone_first(0)}
    prefs.update({t: own_alone_first(1) for t in (2, 3, 4)})
    nets = record_networks(monkeypatch, ownhdg)
    rows = {}
    for scale in (10, 100):
        colors, types = scaled(counts, scale)
        inst = make_instance(colors, prefs, types=types, sigma=3, rho2=2)
        nets.clear()
        out = ownhdg.solve_ownhdg_nash(inst)
        assert out is not None and check_outcome(inst, out, NS).stable
        by_color = {
            c: tuple(k for (c2, _), k in sorted(inst.n_ct.items()) if c2 == c)
            for c in range(inst.gamma)
        }
        assert nets and all(net.supplies in by_color.values() for net in nets)
        rows[inst.n] = [len(net.supplies) for net in nets]
    assert rows[60] == rows[600]
    assert set(rows[60]) <= {2, 3}
