import equitopo as eq
from equitopo.seeds import _fold, derive_seed, make_rng


def test_derivation_is_deterministic():
    assert derive_seed(7, "trial", 3) == derive_seed(7, "trial", 3)
    assert make_rng(7, "x").standard_normal(4).tolist() == \
        make_rng(7, "x").standard_normal(4).tolist()


def test_paths_give_distinct_seeds():
    seen = {derive_seed(7, "trial", k) for k in range(100)}
    assert len(seen) == 100
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a") != derive_seed(8, "a")


def test_trial_seeds_stable_under_trial_count():
    # adding trials must never shift the seeds of existing trials
    first_three = [derive_seed(0, "trial", k) for k in range(3)]
    first_ten = [derive_seed(0, "trial", k) for k in range(10)]
    assert first_ten[:3] == first_three


def test_tags_fold_only_their_first_eight_bytes():
    """The tags "ou-equidyn" and "ou-equidyn-euclid" share their first 8 bytes, so their
    samplers derive one seed and draw the same (v, s) sequence; this pins the collision,
    which every euclid output depends on."""
    assert _fold("ou-equidyn") == _fold("ou-equidyn-euclid") == _fold("ou-equid")
    assert derive_seed(3, "ou-equidyn", "sampler") == \
        derive_seed(3, "ou-equidyn-euclid", "sampler")
    assert derive_seed(3, "ou-equidyn") != derive_seed(3, "od-equidyn")
    ou, euclid = (eq.build_topology(eq.TopologySpec(family, 101, seed=3))
                  for family in ("ou-equidyn", "ou-equidyn-euclid"))
    assert ou.basis_index == euclid.basis_index
    draws = []
    for sampler in (ou, euclid):
        twin = make_rng(3, sampler.family, "sampler")
        values = sampler.basis_index.values
        shifts = []
        for _ in range(5):
            shifts.append((values[int(twin.integers(0, len(values)))], int(twin.integers(1, 102))))
            assert sampler.sample().basis_index == (shifts[-1][0],)
        draws.append(shifts)
    assert draws[0] == draws[1]
