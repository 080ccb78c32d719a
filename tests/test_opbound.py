"""Block operator norms against exact rational arithmetic."""

from fractions import Fraction

import numpy as np

from fourbody.opbound import SpaceLayout, block_norms

rng = np.random.default_rng(11)


def test_block_norms_bound_the_exact_block_norms():
    # nu = 3/2 makes every weight nu^|k| rational, so the block norms
    # max_l sum_k nu^|k| |U_kl| / nu^|l| are exact Fractions: block_norms
    # bounds each from above, within 1e-12 relative, on entries over 40
    # decades, the scalar groups and an exactly zero column included
    layout = SpaceLayout.mixed(2, 3, 5)
    n = layout.n
    U = np.abs(rng.standard_normal((n, n))) * 10.0 ** rng.integers(-20, 20, (n, n))
    U[:, 7] = 0.0
    got = block_norms(U, layout, layout, 1.5)
    weight = [Fraction(3, 2) ** int(k) for k in layout.kabs]
    for r, rs in enumerate(layout.slices):
        for c, cs in enumerate(layout.slices):
            exact = max(sum(Fraction(float(U[k, l])) * weight[k] for k in range(rs.start, rs.stop))
                        / weight[l] for l in range(cs.start, cs.stop))
            assert Fraction(float(got[r, c])) >= exact, (r, c)
            assert got[r, c] <= float(exact) * (1.0 + 1e-12), (r, c)
