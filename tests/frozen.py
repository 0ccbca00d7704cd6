"""Hand-checked constants shared by the test modules.

The product table was worked out twice by hand from the two structure
tensors (the antisymmetric rotation triples and the symmetric coupling
triples) before the library existed; the tests compare the code against
these literals, not the other way around. The RNG values pin the exact
draw pipeline (PCG64 child stream per batch, coin = u > 0.5, a drawn
azimuth = 360 u) so that a silent change in any of those shows up as a
golden mismatch.
"""

# (mu, nu) -> (sign, blade, lam_power) meaning: blade_mu * blade_nu equals
# sign * lam**lam_power * blade. Rows and columns 1..7; products with the
# identity blade 0 are covered separately in the tests.
PRODUCT_TABLE = {
    (1, 1): (-1, 0, 0), (1, 2): (+1, 3, 1), (1, 3): (-1, 2, 1),
    (1, 4): (-1, 5, 1), (1, 5): (+1, 4, 1), (1, 6): (+1, 7, 1),
    (1, 7): (-1, 6, 1),

    (2, 1): (-1, 3, 1), (2, 2): (-1, 0, 0), (2, 3): (+1, 1, 1),
    (2, 4): (+1, 6, 1), (2, 5): (+1, 7, 1), (2, 6): (-1, 4, 1),
    (2, 7): (-1, 5, 1),

    (3, 1): (+1, 2, 1), (3, 2): (-1, 1, 1), (3, 3): (-1, 0, 0),
    (3, 4): (+1, 7, 1), (3, 5): (-1, 6, 1), (3, 6): (+1, 5, 1),
    (3, 7): (-1, 4, 1),

    (4, 1): (+1, 5, 1), (4, 2): (-1, 6, 1), (4, 3): (+1, 7, 1),
    (4, 4): (-1, 0, 0), (4, 5): (-1, 1, 1), (4, 6): (+1, 2, 1),
    (4, 7): (-1, 3, 1),

    (5, 1): (-1, 4, 1), (5, 2): (+1, 7, 1), (5, 3): (+1, 6, 1),
    (5, 4): (+1, 1, 1), (5, 5): (-1, 0, 0), (5, 6): (-1, 3, 1),
    (5, 7): (-1, 2, 1),

    (6, 1): (+1, 7, 1), (6, 2): (+1, 4, 1), (6, 3): (-1, 5, 1),
    (6, 4): (-1, 2, 1), (6, 5): (+1, 3, 1), (6, 6): (-1, 0, 0),
    (6, 7): (-1, 1, 1),

    (7, 1): (-1, 6, 1), (7, 2): (-1, 5, 1), (7, 3): (-1, 4, 1),
    (7, 4): (-1, 3, 1), (7, 5): (-1, 2, 1), (7, 6): (-1, 1, 1),
    (7, 7): (+1, 0, 0),
}

# first eight uniforms of batch stream (seed=0, batch=0)
UNIFORMS_SEED0 = [
    0.9429375528828794, 0.3163371523854981, 0.7223425886498254,
    0.12560308543269327, 0.42297636251497006, 0.6480380975872828,
    0.05667724203060187, 0.8189170364051791,
]

# coins from the same eight uniforms under u > 0.5 -> +1
FLIPS_SEED0 = [1, -1, 1, -1, -1, 1, -1, 1]

# uniformity of the reported first angle: epr run, seed 123, 1e5 trials,
# 36 bins over [-180, 180); critical value chi2(35 dof, p=0.01) = 57.342
CHI2_PHI_A_SEED123 = 32.7248
CHI2_CRITICAL_35DOF = 57.342

# chi2(70 dof, p=0.01): the 72 five-degree bins of |phi_b - phi_a| with the
# last one pooled into its neighbour, so every expected count is >= 5
CHI2_CRITICAL_70DOF = 100.425

# mean coin over 1e6 trials at seed 2026 (and the 5/sqrt(m) envelope)
LAMBDA_MEAN_SEED2026 = -0.001886
