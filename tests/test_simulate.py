import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from rkfda import make_grid, simulate
from rkfda.core import LabeledDataset
from rkfda.kernels import BrownianBridgeKernel, BrownianKernel, OrnsteinUhlenbeckKernel
from rkfda.simulate import (
    GaussianModel,
    HillsideTrend,
    LinearTrend,
    LogisticModel,
    PeakTrend,
    RandomSlopeTrend,
    SmoothedBrownian,
    SumTrend,
    _generator,
    _spawn_seed_words,
    builtin_catalog,
    gen_model_dataset,
    gen_process,
    parse_catalog,
    smoothing_matrix,
    standard_grid,
    trend_eval,
    trend_realize,
)


def test_peak_trend_values():
    assert trend_eval(PeakTrend(1, 1), 0.5) == pytest.approx(0.5)
    assert trend_eval(PeakTrend(1, 1), 1.0) == pytest.approx(0.0)
    assert trend_eval(PeakTrend(2, 1), 0.25) == pytest.approx(math.sqrt(2) / 4)


def test_peak_trend_validation():
    with pytest.raises(ValueError):
        PeakTrend(0, 1)
    with pytest.raises(ValueError):
        PeakTrend(2, 3)  # shift above 2^(level-1)
    PeakTrend(2, 1.25)  # fractional shifts are allowed


def test_hillside_values():
    h = HillsideTrend(t0=0.5, slope=4.0)
    assert trend_eval(h, 0.75) == pytest.approx(1.0)
    assert trend_eval(h, 0.4) == 0.0


def test_random_slope_needs_rng():
    with pytest.raises(ValueError):
        trend_eval(RandomSlopeTrend(sd=5.0), 0.5)
    rng = np.random.default_rng(0)
    t = np.array([0.0, 0.5, 1.0])
    values = trend_realize(RandomSlopeTrend(sd=5.0), t, rng)
    # one slope draw, linear in t
    assert values[2] == pytest.approx(2 * values[1])


def test_sum_trend():
    s = SumTrend(terms=(LinearTrend(2.0), HillsideTrend(0.5, 2.0)))
    assert trend_eval(s, 1.0) == pytest.approx(2.0 + 1.0)


def _deterministic_mean(trend, points):
    """A trend's mean on ``points``: random slopes average to zero."""
    if isinstance(trend, RandomSlopeTrend):
        return np.zeros_like(points)
    if isinstance(trend, SumTrend):
        total = np.zeros_like(points)
        for term in trend.terms:
            total = total + _deterministic_mean(term, points)
        return total
    return trend.values(points)


def _class_mean(law, points):
    total = np.zeros_like(points)
    for w, comp in zip(law.weights, law.components):
        total = total + w * _deterministic_mean(comp.trend, points)
    return total


def test_mean_diff_matches_the_deterministic_mean_walker():
    models = [m for m in builtin_catalog().values() if isinstance(m, GaussianModel)]
    assert len(models) == 16
    for count in (100, 1000):
        points = standard_grid(count).points
        for model in models:
            want = _class_mean(model.class1, points) - _class_mean(model.class0, points)
            np.testing.assert_array_equal(model.mean_diff(points), want)


def test_peak_derivatives_quadrature_orthonormal():
    # slopes of the triangular bumps form an orthonormal step-function family
    g = make_grid(1000, 0, 1)
    specs = [PeakTrend(1, 1), PeakTrend(2, 1), PeakTrend(2, 2), PeakTrend(3, 2)]
    derivs = [np.diff(trend_eval(s, g.points)) / g.spacing for s in specs]
    inner = np.array([[(a * b).sum() * g.spacing for b in derivs] for a in derivs])
    np.testing.assert_allclose(inner, np.eye(4), atol=0.02)


def test_brownian_variance_at_one():
    grid = standard_grid(50)
    rng = np.random.default_rng(1)
    draws = np.stack([gen_process(BrownianKernel(), grid, rng) for _ in range(20000)])
    assert draws[:, -1].var() == pytest.approx(1.0, abs=0.03)


def test_bridge_pins_to_zero():
    grid = make_grid(20, 0, 1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        path = gen_process(BrownianBridgeKernel(), grid, rng)
        assert path[0] == 0.0
        assert path[-1] == 0.0


def test_bridge_covariance():
    grid = make_grid(4, 0, 1)
    rng = np.random.default_rng(3)
    draws = np.stack([gen_process(BrownianBridgeKernel(), grid, rng) for _ in range(20000)])
    c = np.cov(draws.T, bias=True)
    want = np.minimum.outer(grid.points, grid.points) - np.outer(grid.points, grid.points)
    np.testing.assert_allclose(c, want, atol=0.02)


def test_ou_stationary_covariance():
    grid = make_grid(3, 0, 1)
    rng = np.random.default_rng(4)
    draws = np.stack([gen_process(OrnsteinUhlenbeckKernel(), grid, rng) for _ in range(20000)])
    cov01 = np.cov(draws[:, 0], draws[:, 2], bias=True)[0, 1]
    assert cov01 == pytest.approx(math.exp(-1.0), abs=0.03)
    assert draws[:, 1].var() == pytest.approx(1.0, abs=0.03)


def test_smoothed_brownian_is_smoother():
    grid = standard_grid(100)
    rng = np.random.default_rng(5)
    rough = np.stack([gen_process(BrownianKernel(), grid, rng) for _ in range(200)])
    smooth = np.stack([gen_process(SmoothedBrownian(0.10), grid, rng) for _ in range(200)])
    rough_wiggle = np.mean(np.square(np.diff(rough, axis=1)))
    smooth_wiggle = np.mean(np.square(np.diff(smooth, axis=1)))
    assert smooth_wiggle < rough_wiggle / 10


def test_g2_class_means():
    model = builtin_catalog()["G2"]
    grid = standard_grid(50)
    ds = gen_model_dataset(model, 20000, grid, 6)
    m0 = ds.class_curves(0)[:, -1].mean()
    m1 = ds.class_curves(1)[:, -1].mean()
    assert m0 == pytest.approx(1.0, abs=0.03)
    assert m1 == pytest.approx(0.0, abs=0.03)


def test_logistic_link_calibration():
    # near x(t_65) = 0 the class-1 probability is one half
    model = builtin_catalog()["L1-B"]
    grid = standard_grid(100)
    ds = gen_model_dataset(model, 20000, grid, 7)
    col = grid.index_of(0.65)
    sel = np.abs(ds.curves[:, col]) < 0.05
    assert sel.sum() > 400
    assert ds.labels[sel].mean() == pytest.approx(0.5, abs=0.07)


def test_mixture_component_frequencies():
    # the bridge component of the class-0 mixture is pinned at t = 1
    model = builtin_catalog()["M7"]
    grid = standard_grid(100)
    ds = gen_model_dataset(model, 10_000, grid, 8)
    class0 = ds.class_curves(0)
    frac_bridge = np.mean(np.abs(class0[:, -1]) < 1e-12)
    assert frac_bridge == pytest.approx(0.5, abs=0.02)


def test_generation_is_deterministic():
    model = builtin_catalog()["M8"]
    grid = standard_grid(40)
    a = gen_model_dataset(model, 64, grid, 9)
    b = gen_model_dataset(model, 64, grid, 9)
    np.testing.assert_array_equal(a.curves, b.curves)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = gen_model_dataset(model, 64, grid, 10)
    assert not np.array_equal(a.curves, c.curves)


def test_curve_streams_do_not_depend_on_sample_size():
    # curve i is keyed by (seed, class, i): a longer sample extends, not reshuffles
    model = builtin_catalog()["G2b"]
    grid = standard_grid(30)
    small = gen_model_dataset(model, 16, grid, 11)
    big = gen_model_dataset(model, 32, grid, 11)
    np.testing.assert_array_equal(small.curves, big.curves[:16])
    np.testing.assert_array_equal(small.labels, big.labels[:16])


def test_shifted_ou_and_smoothed_models_generate_and_select():
    # end-to-end smoke over the non-Brownian marginals
    from rkfda import SelectionConfig, greedy_select

    grid = standard_grid(50)
    for model_id in ("L1-OUt", "L1-sB", "L4-ssB"):
        ds = gen_model_dataset(builtin_catalog()[model_id], 120, grid, 13)
        assert 0 < ds.labels.mean() < 1
        result = greedy_select(ds, SelectionConfig(d_max=3, rel_tol=0.0))
        assert len(result) == 3
    # the OUt marginal actually carries the linear shift
    shifted = gen_model_dataset(builtin_catalog()["L1-OUt"], 4000, grid, 14)
    assert shifted.curves[:, -1].mean() == pytest.approx(1.0, abs=0.1)


def test_catalog_contents():
    cat = builtin_catalog()
    for model_id in ("TOY", "G2", "G8", "L1-OU", "L1-OUt", "L4-ssB", "M10"):
        assert model_id in cat
    logistic = [k for k in cat if k.startswith("L")]
    assert len({k.split("-")[0] for k in logistic}) >= 10
    assert {k.split("-")[1] for k in logistic} == {"B", "OU", "OUt", "sB", "ssB"}
    assert cat["G8"].class0.components[0].trend.terms[0].shift == 1.25
    assert cat["TOY"].relevant == (0.25, 0.375, 0.5, 0.75, 1.0)


def test_parse_catalog_rejects_garbage():
    from rkfda.core import DatasetFormatError

    with pytest.raises(DatasetFormatError):
        parse_catalog("[X]\ntype = gaussian\nclass0 = W\nclass1 = B\n")
    with pytest.raises(DatasetFormatError):
        parse_catalog("[X]\ntype = logistic\nprocess = B\nlink = 10*Y65\n")
    with pytest.raises(DatasetFormatError):
        parse_catalog("[X]\ntype = warp\nclass0 = B\nclass1 = B\n")


def test_unknown_model_id_is_rejected():
    with pytest.raises(KeyError):
        _ = builtin_catalog()["G999"]


# ---------------------------------------------------------------------------
# Bit-identical streams: golden digests, the per-curve generator as the
# oracle, and the vectorized seeding against numpy's SeedSequence
# ---------------------------------------------------------------------------

# SHA-256 of (curves as float64, labels as int64) for n = 25, recorded from the
# per-curve generator (the ``_per_curve_dataset`` oracle below) on x86-64 with
# numpy 2.4 and OpenBLAS 0.3.31.  The smoothed models go through a BLAS
# matrix-vector product, so another BLAS build may round them differently.
GOLDEN_SEEDS = {"tuple": (7, 2**63 + 5, 25, 3, 2), "int": 20241018}
GOLDEN_DIGESTS = {
    ("TOY", 100, "tuple"): "c6d36896f7b3ca8794c01d2982da1a2cb83b4534285a7f52b104fc7211adb620",
    ("TOY", 100, "int"): "c9d7e10ee64cdfbe6c97d0443c1421503841037b5e971ab64b84fdd1621f9ede",
    ("G2", 100, "tuple"): "be34763bb221e52df72a357e595908ed75fe47a7d70011e61bb1aeebe0c0b86c",
    ("G2", 100, "int"): "91932a04e6b05bf485afa7a55d07756b503b05a7ebccf2d1c0f905a725b8f0f9",
    ("G2b", 100, "tuple"): "e7c1dac9bd66a002a9cb7526e7545d9e3201da9db0973c290fff98554e8ca8e9",
    ("G2b", 100, "int"): "606fe69a5d7b2842def5945e73915126d8b5d3a19eb85a4dacd015155f5276ec",
    ("G4", 100, "tuple"): "816d4b608c70eddd32eefacff02f3f9e69e2c81845fb681cc405056699b5b3ef",
    ("G4", 100, "int"): "9e1d5a436c61f8aae8a029845d64017eff1b72d8534238abad0ed836a005f504",
    ("G5", 100, "tuple"): "942f713d606f6fa30c825e548181a5096ae43467ab856c7f38a29dd6259d2006",
    ("G5", 100, "int"): "b4a9a924c677e483206c620669ffcce344214bc77b95f44d051349791b6279ce",
    ("G6", 100, "tuple"): "feb93e0ff0205b5922920e85f35feed38b0d6d8f3f177694c1fb9f8685643ce5",
    ("G6", 100, "int"): "89ff7d6deac616f385328279d103f0f0826548911d12ba7eba413c67eae7b653",
    ("G7", 100, "tuple"): "a81cf87257f0399cb530bdb8328d0876fd234d8eaf6fc70f276be6d465db2352",
    ("G7", 100, "int"): "fc96899fa6239ed639e3e5d61ea50d8f5355b06c5747831f6e9939e2dd1c0a6d",
    ("G8", 100, "tuple"): "f2cbf5baa4f1ed3b4bc07f75d48613f0b21bdfbeebb14fce40296ff58cbdf9db",
    ("G8", 100, "int"): "472c709e8a3caf685f470b8bcb7f9875a2b1a888b5b4b75c74fd3465015c4872",
    ("L1-B", 100, "tuple"): "c5d9c5a0272b3e7380e5210310b6717558361f388df74ed5e7df30edbceb4740",
    ("L1-B", 100, "int"): "f1208520bbe3dc70ef56b9916a22a5ffa6c67743269cff478b5b737b7046aee8",
    ("L2-B", 100, "tuple"): "5770db7cc9116c805786161dfa397f38050c8e4f10afb5f64e72d6fba75dbc03",
    ("L2-B", 100, "int"): "6fa54fb7fedfd67d53ea70e66481303c5ea43c5064f650ea2dc98ba83a7cdf92",
    ("L3-B", 100, "tuple"): "00547af538df769fc58458d3dbb42bd603b453831222b4f29906f5e74b2812b5",
    ("L3-B", 100, "int"): "d16974cbeaaeffa9567515857a3e7ad07c41fe7be8539abe449297642d057ecd",
    ("L4-B", 100, "tuple"): "5770db7cc9116c805786161dfa397f38050c8e4f10afb5f64e72d6fba75dbc03",
    ("L4-B", 100, "int"): "a7c47d74cecebd36f07bff6785c7dcb063056d7105f2a8de53d972144e5e0adf",
    ("L5-B", 100, "tuple"): "b3c2ed07742d17070693d743f00041fd6a066adf11f63b9da99bd159e09b43fc",
    ("L5-B", 100, "int"): "b5215c4c212eae0510b4636408ae86ed1195dcd7e6e246c50083e72b7991168d",
    ("L6-B", 100, "tuple"): "96617b81ef816b7e9d9c52d5c00abad75910be0a1fb9ae9dcc6b68d33d945f50",
    ("L6-B", 100, "int"): "0a8eec0afcd3aff5c5b96d4390ed74615dce062adf575116f1383795e86d8308",
    ("L7-B", 100, "tuple"): "9159fc790e77a7310293dbcb8a34fce02d8a1fb4acb315ef78ac34889ba9bf0c",
    ("L7-B", 100, "int"): "0a8eec0afcd3aff5c5b96d4390ed74615dce062adf575116f1383795e86d8308",
    ("L8-B", 100, "tuple"): "feebacc63f61cb02cfdcb84768d7bcba55a1d08bed445817706d7c2ee5785a55",
    ("L8-B", 100, "int"): "1f62c71c7800f365ef3f34168b185b43dcf58f39f46114bf658b8fb1f15314ed",
    ("L9-B", 100, "tuple"): "64e249538058ff6b2de64a76ae8cf837ddcf83f96df3f9375b36dc8456ea0f2d",
    ("L9-B", 100, "int"): "d87e7959cd0e6aa7f160d867aaaea9607c0bdf1965a7ef64d6604877b670ad62",
    ("L10-B", 100, "tuple"): "9bf20b7b6b0621d63c493f7a47096ebf17a3697bec35f828bb37c20b2a43dc79",
    ("L10-B", 100, "int"): "1aba786b56af16668e9678ac4002d41cdf4e1c5aac43a4661521b7ac1bcd4541",
    ("L13-B", 100, "tuple"): "3ee2b5bccf32f0e0c2ca72c87ff95e1b847876b8cfbf4c7355bd548529ccbe3e",
    ("L13-B", 100, "int"): "d75e9bea667277212a31914a9bbbf35c48e76c1b50dc615138db6ac6977ebc65",
    ("L14-B", 100, "tuple"): "3746804e3b200428497f8d91c7cffb53c5a46096b58b3abefead8ffd33a47060",
    ("L14-B", 100, "int"): "87eb147874d529ad9f51fe1fae314f0259c6a76c5fe9ef9d232e0c419dcb46a2",
    ("L15-B", 100, "tuple"): "6760c635138798063fb2f30a90e36ee7875d6229ff3b35f3c26cf38a223933d7",
    ("L15-B", 100, "int"): "ad1fad92bc60a7e983cc0a431232cf5611b6e3112a5aa2bd19915fd6ec7fafa5",
    ("L1-OU", 100, "tuple"): "67e462876ede12171bc9f2db566236fcdd1b7250bb392bc87470041ac9259b30",
    ("L1-OU", 100, "int"): "00a98215134d3bda7d1c8f80c1d2730734296ef2797291d93ebe235eab34bc4a",
    ("L2-OU", 100, "tuple"): "a35989244fad93aaf385c40067c77ebf4c61ccedcf832f3158404546f7d4cfdc",
    ("L2-OU", 100, "int"): "1deabfcfb704580ce14c86e23041fbd7e790121c60de164a82eca3f42a1a21ab",
    ("L3b-OU", 100, "tuple"): "d6a1230b44189bc613478aef58ca16f3a45e6140282adb5fdab999469c9ef10d",
    ("L3b-OU", 100, "int"): "0bd7f7fe3c00ba16faff2494bfbd252e61ae4d0d1f69695570fe22ff90d014a2",
    ("L4b-OU", 100, "tuple"): "a48754bc50afc0908494d322eeb2b46e6945fa76ca86404fcd0ba6fd3b186f78",
    ("L4b-OU", 100, "int"): "61683937c931b3abd635ef3c7ec2099e64821d23da868534b17d7990f095c293",
    ("L8b-OU", 100, "tuple"): "49e9a30a46fab18c52dd0baaa17886c5568bf545b9551a7b59f8d80ca2874b57",
    ("L8b-OU", 100, "int"): "b3e775f96af0a7feb848bacffb9e85df53547907c445ee257f0c0cdfbd7f3a4e",
    ("L13-OU", 100, "tuple"): "519497e651513f0f75a69b5bb7ace90e9e9e6936c58cafc63ce45ed64913d124",
    ("L13-OU", 100, "int"): "a8c4b08bd4953684db6348de9e23c632dbbbf9c24a1dbbb06f3f1aea622c7538",
    ("L1-OUt", 100, "tuple"): "3ac342d05b5954c4aca4a14279cf075aed093bf8e235e8053abf801c953d47c7",
    ("L1-OUt", 100, "int"): "20ab893f1278574324c51c38cf37c9edfcd302b372c3c0e069711604c018b22d",
    ("L2-OUt", 100, "tuple"): "6c1b19115c3b6ed338c9379d70b0e8d5555ba1bbdc99c574c630bec5309a8064",
    ("L2-OUt", 100, "int"): "4d88cb11b59d7a667027b7e8b6d25dbfff7757613f6370504c6bb358629a8f09",
    ("L1-sB", 100, "tuple"): "4fe373fd89c6863665db1046673a07190a5dcb9618f92ec1df99096ee0e88832",
    ("L1-sB", 100, "int"): "a8406dca434dae336a10b80545225064692afc4ebe896bcd1bcc3db34e7da3ec",
    ("L4-sB", 100, "tuple"): "f1691de70862401b2859d1f02e16708827fdca00ac57a643cdc49b13699091d6",
    ("L4-sB", 100, "int"): "28577e0f928275e3c06461e2a6b9b870569ba78407f6680c56400a54edce469f",
    ("L1-ssB", 100, "tuple"): "b126eb9a64db772a17ff67f40d3b7dea0ed8cb1a908136bff7074cc1ac0afe50",
    ("L1-ssB", 100, "int"): "45d7c94992f404d94121c3f09d8eee3811a85897458831ee6f67dd2e4210acef",
    ("L4-ssB", 100, "tuple"): "1c3396790eee7bf5557f88e7dcad13156e1f301ebacae5c01cd6972206507e2b",
    ("L4-ssB", 100, "int"): "63c876a3f2e1bc7ee615a51cb58f4428d2a423678333b54f094546759b819ab8",
    ("M2", 100, "tuple"): "49967063734d9ebf3c55394f605aebef5e92c90d9d8f5ecee3d99294f5767f65",
    ("M2", 100, "int"): "c438a036a8bd6148f77b6f8c7f5ba5d9956faefe434859ca76f014896faf02d2",
    ("M3", 100, "tuple"): "cc45d10ebb0fe68306f2b1eb91555e6de172c8c01ea02ce599142506c191a822",
    ("M3", 100, "int"): "f31209b96f2d1d728a3e9c352b8211157acd3db82ce93aa6efe05bc6d034fb0e",
    ("M4", 100, "tuple"): "dc03b92dbcf1e95648f3c750d732a2e6a6b5b9adfce5132110a929141aafb601",
    ("M4", 100, "int"): "085e50ff0b3c0a3137822a26dc55736bc08bf2d776a4e66dc99e7367f3747a9c",
    ("M5", 100, "tuple"): "a6282d8d79ea8f4496310adc7c97ec075bda58e4386f8cf4286375ec50be1cef",
    ("M5", 100, "int"): "4afbdac0a723d93a25e188788923c3f146429f1b8b1e440649ec6061bb2306cb",
    ("M6", 100, "tuple"): "9566c6488da6b68326683e07bc370b28ea9fb8bb47091a2a951781cfca41b491",
    ("M6", 100, "int"): "c4d3305f767bfacd093ada478b8d241fdc8f7631a8e361b923a2fd484658286b",
    ("M7", 100, "tuple"): "a20f428340d85e5db648d4f92c0f6d0aede3cd9aa6664bf772141f555e224e26",
    ("M7", 100, "int"): "ed9a15d510cc0a3e11ffeb30700a533164aaa0bce4aa926860ca8cd21adbecc1",
    ("M8", 100, "tuple"): "e9847991509040d24e38ec404c3140718e4f6e35bb06035e5d06cc49ae513622",
    ("M8", 100, "int"): "54ce5c08684bbada7a228c94024664be85d1acf4be5ab99d51e2b011414742d7",
    ("M10", 100, "tuple"): "3a262978d948ac5a9e1ee23965b0e331e0bae5cc22208addff54a2c5fc36f61b",
    ("M10", 100, "int"): "e84af9f28ec3200985e49f95134706b2e23b860ea165d9b3932fe6e554d8d1f6",
    ("G4", 1000, "tuple"): "6f470c58c61598dd1ee26390960ca95aad00d46404f33e032ea4c038629d4327",
    ("G4", 1000, "int"): "f42ef5c3f24adf247d339e55b33015b146ac94c78cb108d436ed47ff20875497",
    ("L1-B", 1000, "tuple"): "f16563648096dc3a2faf740773b7881d185703b58d0c4b7dd88efc0eb93fd4d3",
    ("L1-B", 1000, "int"): "ce68a5a682b194bc2e93b6a08d55bfbf23a51c545e38c131aec7663d0ea4ec52",
    ("M3", 1000, "tuple"): "22cecfe7e60c60b63c8489d0840e7a0bd88f0663999838ba3aa129c4893313d7",
    ("M3", 1000, "int"): "4963b0eb374afc141a79c66316ebb689a2677205833021a8ce02b8f6d06c34b5",
    ("L4-sB", 1000, "tuple"): "59f51ec3ef2ebb3424d73b0dcc8a528567824aeb59526b67ceab2e2dd45ea8f3",
    ("L4-sB", 1000, "int"): "f649dc6cfb804e051c37766cf3c0272561918af96f379fedc95062267f03b0c4",
}


def _digest(ds) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.curves, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ds.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS), ids=lambda k: f"{k[0]}-G{k[1]}-{k[2]}")
def test_datasets_match_golden_digests(key):
    model_id, count, seed_name = key
    ds = gen_model_dataset(builtin_catalog()[model_id], 25, standard_grid(count), GOLDEN_SEEDS[seed_name])
    assert _digest(ds) == GOLDEN_DIGESTS[key]


def test_golden_digests_hold_with_blas_pinned():
    from rkfda.bench import _blas_pinned

    with _blas_pinned():
        for (model_id, count, seed_name), digest in GOLDEN_DIGESTS.items():
            ds = gen_model_dataset(builtin_catalog()[model_id], 25, standard_grid(count), GOLDEN_SEEDS[seed_name])
            assert _digest(ds) == digest, (model_id, count, seed_name)


def test_ou_simulation_does_not_import_scipy_signal():
    # scipy.signal costs about half a second and 40 MB per process to import
    code = (
        "import sys\n"
        "from rkfda.simulate import builtin_catalog, gen_model_dataset, standard_grid\n"
        "gen_model_dataset(builtin_catalog()['L1-OU'], 20, standard_grid(100), 3)\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_golden_digests_cover_the_catalog():
    covered = {model_id for model_id, count, _ in GOLDEN_DIGESTS if count == 100}
    assert covered == set(builtin_catalog())


# The per-curve generator that the block sampler replaced, kept as the oracle:
# one SeedSequence-built stream and one sampler call per curve.


def _oracle_stream(entropy, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))


def _oracle_pick(rng, weights):
    if len(weights) == 1:
        return 0
    idx = int(np.searchsorted(np.cumsum(weights), rng.random(), side="right"))
    return min(idx, len(weights) - 1)


def _oracle_trend(spec, points, rng):
    if isinstance(spec, RandomSlopeTrend):
        return rng.normal(0.0, spec.sd) * points
    if isinstance(spec, SumTrend):
        total = np.zeros_like(points)
        for term in spec.terms:
            total = total + _oracle_trend(term, points, rng)
        return total
    return spec.values(points)


def _oracle_sampler(spec, grid):
    pts = grid.points
    steps = np.sqrt(np.diff(pts, prepend=0.0))
    if isinstance(spec, BrownianKernel):
        return lambda rng: np.cumsum(rng.standard_normal(pts.size) * steps)
    if isinstance(spec, BrownianBridgeKernel):
        tail = spec.t_max - pts[-1]
        scale = pts / spec.t_max

        def draw_bridge(rng):
            b = np.cumsum(rng.standard_normal(pts.size) * steps)
            b_end = b[-1] + (math.sqrt(tail) * rng.standard_normal() if tail > 1e-15 else 0.0)
            return b - scale * b_end

        return draw_bridge
    if isinstance(spec, OrnsteinUhlenbeckKernel):
        import scipy.signal

        sigma = math.sqrt(spec.sigma2)
        rho = math.exp(-spec.theta * grid.spacing)
        innov = sigma * math.sqrt(1.0 - rho * rho)

        def draw_ou(rng):
            w = innov * rng.standard_normal(pts.size)
            w[0] *= sigma / innov
            return scipy.signal.lfilter([1.0], [1.0, -rho], w)

        return draw_ou
    if isinstance(spec, SmoothedBrownian):
        weights = smoothing_matrix(grid, spec.bandwidth)
        return lambda rng: weights @ np.cumsum(rng.standard_normal(pts.size) * steps)
    raise TypeError(type(spec).__name__)


def _per_curve_dataset(model, n, grid, seed):
    curves = np.empty((n, grid.count))
    if isinstance(model, GaussianModel):
        samplers = {
            label: [(_oracle_sampler(comp.process, grid), comp.trend) for comp in law.components]
            for label, law in ((0, model.class0), (1, model.class1))
        }
        labels = (_oracle_stream(seed, 2, 0).random(n) < model.prior).astype(int)
        laws = {0: model.class0, 1: model.class1}
        for i in range(n):
            y = int(labels[i])
            rng = _oracle_stream(seed, y, i)
            c = _oracle_pick(rng, laws[y].weights)
            draw, trend = samplers[y][c]
            curves[i] = draw(rng) + _oracle_trend(trend, grid.points, rng)
        return LabeledDataset(grid=grid, curves=curves, labels=labels, fixed_prior=model.prior)
    assert isinstance(model, LogisticModel)
    samplers = [(_oracle_sampler(comp.process, grid), comp.trend) for comp in model.marginal.components]
    labels = np.empty(n, dtype=int)
    for i in range(n):
        rng = _oracle_stream(seed, 0, i)
        c = _oracle_pick(rng, model.marginal.weights)
        draw, trend = samplers[c]
        curves[i] = draw(rng) + _oracle_trend(trend, grid.points, rng)
        eta = expit(model.link_values(curves[i : i + 1], grid)[0])
        labels[i] = int(rng.random() < eta)
    return LabeledDataset(grid=grid, curves=curves, labels=labels, fixed_prior=model.prior)


def _assert_same_dataset(model, n, grid, seed):
    got = gen_model_dataset(model, n, grid, seed)
    want = _per_curve_dataset(model, n, grid, seed)
    np.testing.assert_array_equal(got.curves, want.curves)
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype
    return want


@pytest.mark.parametrize("count", [100, 1000])
def test_block_sampler_matches_per_curve_generator_on_catalog(count):
    grid = standard_grid(count)
    for model_id, model in builtin_catalog().items():
        for n in (1, 7, 60):
            _assert_same_dataset(model, n, grid, (3, 2**63 + 5, n, 1, 0))


# Models the catalog lacks: random slopes in a logistic marginal (slopes are
# drawn before the label's uniform), several slopes and a sum of random and
# deterministic terms, the reciprocal link, and a bridge component.
EDGE_CATALOG = parse_catalog(
    """
[LRS]
type = logistic
process = 1/2 : B + 2*t + rslope(3) + hillside(0.5,2) | 1/4 : BB + rslope(1) + rslope(2) | 1/4 : OU
link = 2/X50 + 5*X80
prior = 1/3

[EMPTY]
type = mixture
class0 = 499/1000 : B + 3*t | 1/500 : BB | 499/1000 : B + rslope(2)
class1 = B - Phi(2,2)
prior = 1/5
"""
)


@pytest.mark.parametrize("model_id", ["LRS", "EMPTY"])
@pytest.mark.parametrize("count", [100, 1000])
def test_block_sampler_matches_per_curve_generator_on_edge_models(model_id, count):
    for n in (1, 7, 60):
        _assert_same_dataset(EDGE_CATALOG[model_id], n, standard_grid(count), (11, n))


@pytest.mark.parametrize("model_id", ["G4", "M10", "L1-OU", "L4-sB", "LRS"])
def test_block_sampler_matches_per_curve_generator_across_row_chunks(model_id):
    # 700 curves at G = 1000 span several row blocks of the transforms
    n, grid = 700, standard_grid(1000)
    assert n * grid.count * 8 > 2 * simulate._BLOCK_BYTES
    model = EDGE_CATALOG[model_id] if model_id in EDGE_CATALOG else builtin_catalog()[model_id]
    _assert_same_dataset(model, n, grid, (13, n))


def test_mixture_with_a_component_that_draws_no_curve():
    # the 1/500 bridge component of class 0 draws none of these 60 curves
    grid = standard_grid(100)
    ds = _assert_same_dataset(EDGE_CATALOG["EMPTY"], 60, grid, 5)
    class0 = ds.class_curves(0)
    assert len(class0) > 10
    assert not np.any(np.abs(class0[:, -1]) < 1e-12)


def test_bridge_on_a_grid_ending_before_one_draws_the_endpoint():
    # the last grid point is 0.9 < t_max, so every bridge curve draws an endpoint normal
    grid = make_grid(40, 0.02, 0.9)
    for model_id in ("M7", "M10"):
        ds = _assert_same_dataset(builtin_catalog()[model_id], 60, grid, (4, 9))
        assert np.all(np.abs(ds.curves[:, -1]) > 0)
    _assert_same_dataset(EDGE_CATALOG["LRS"], 60, grid, (4, 9))


def test_recip_link_labels_match_per_curve_generator():
    # 2/X50 is infinite where the curve is exactly 0 and flips sign across it
    model = EDGE_CATALOG["LRS"]
    ds = _assert_same_dataset(model, 300, standard_grid(100), 12)
    assert 0 < ds.labels.mean() < 1


@pytest.mark.parametrize(
    "spec",
    [BrownianKernel(), BrownianBridgeKernel(), BrownianBridgeKernel(t_max=1.2), OrnsteinUhlenbeckKernel(2.0, 0.5),
     SmoothedBrownian(0.05)],
    ids=["B", "BB", "BB-tail", "OU", "sB"],
)
def test_gen_process_matches_per_curve_sampler(spec):
    grid = make_grid(30, 0.0, 1.0)
    fast, slow = np.random.default_rng(21), np.random.default_rng(21)
    oracle = _oracle_sampler(spec, grid)
    for _ in range(20):
        np.testing.assert_array_equal(gen_process(spec, grid, fast), oracle(slow))
    assert fast.random() == slow.random()


def test_gen_process_rejects_grid_beyond_bridge_endpoint():
    with pytest.raises(ValueError):
        gen_process(BrownianBridgeKernel(t_max=0.5), make_grid(10, 0.0, 1.0), np.random.default_rng(0))


# short entropy is zero-padded to the pool of 4 words, long ints split into words
SPAWN_ENTROPIES = [0, 1, (1,), (0, 0, 0), (1, 2, 3, 4), 2**64 - 1, 2**64 + 12345, 2**130 + 7,
                   (7, 2**63 + 5, 25, 3, 2), (2**40, 5), np.int64(9)]


@pytest.mark.parametrize("entropy", SPAWN_ENTROPIES, ids=lambda e: repr(e)[:24])
@pytest.mark.parametrize("label", [0, 1, 2])
def test_spawn_seed_words_match_seed_sequence(entropy, label):
    indices = [0, 1, 2, 17, 2**31, 2**32 - 1]
    words = _spawn_seed_words(entropy, label, indices)
    for row, i in zip(words, indices):
        seq = np.random.SeedSequence(entropy, spawn_key=(label, i))
        np.testing.assert_array_equal(row, seq.generate_state(4, np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(indices), 4)


@pytest.mark.parametrize("entropy", SPAWN_ENTROPIES, ids=lambda e: repr(e)[:24])
def test_spawn_seed_words_with_a_label_per_row_match_seed_sequence(entropy):
    # one pass over rows of mixed labels, as gen_model_dataset seeds its curves
    indices = np.array([0, 1, 2, 3, 17, 40, 2**31, 2**32 - 1])
    labels = np.array([0, 1, 2, 1, 0, 2, 1, 0])
    words = _spawn_seed_words(entropy, labels, indices)
    assert words.dtype == np.uint64 and words.shape == (len(indices), 4)
    for row, label, i in zip(words, labels.tolist(), indices.tolist()):
        seq = np.random.SeedSequence(entropy, spawn_key=(label, i))
        np.testing.assert_array_equal(row, seq.generate_state(4, np.uint64))


def test_seed_words_give_the_seed_sequence_stream():
    words = _spawn_seed_words((5, 6), 1, [3])[0]
    want = np.random.default_rng(np.random.SeedSequence((5, 6), spawn_key=(1, 3)))
    got = _generator(words)
    np.testing.assert_array_equal(got.standard_normal(50), want.standard_normal(50))
    assert got.random() == want.random()


@pytest.mark.parametrize("entropy", [-1, (3, -2)])
def test_negative_entropy_is_rejected_like_seed_sequence(entropy):
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy, spawn_key=(0, 0))
    with pytest.raises(ValueError):
        _spawn_seed_words(entropy, 0, [0])
    with pytest.raises(ValueError):
        gen_model_dataset(builtin_catalog()["G2"], 3, standard_grid(10), entropy)


def test_spawn_key_words_beyond_32_bits_are_rejected():
    # SeedSequence would hash a second key word; the vectorized pass has one
    with pytest.raises(ValueError):
        _spawn_seed_words(1, 0, [5, 2**32])
    with pytest.raises(ValueError):
        _spawn_seed_words(1, 2**32, [0])
    with pytest.raises(ValueError):
        _spawn_seed_words(1, 0, [-1])


@pytest.mark.parametrize(
    "labels",
    [np.array([0, 2**32]), [1, -1], np.array([0, 2**63], dtype=np.uint64), np.array([2**40, 0])],
    ids=["2**32", "negative", "uint64-2**63", "2**40"],
)
def test_spawn_label_arrays_beyond_32_bits_are_rejected(labels):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _spawn_seed_words(1, labels, [0, 1])


@pytest.mark.parametrize("labels", [[0, 1, 0], np.zeros((2, 1), dtype=int), [0.0, 1.0], 1.5])
def test_spawn_labels_must_be_integers_one_per_row_or_one_for_all(labels):
    with pytest.raises(ValueError):
        _spawn_seed_words(1, labels, [0, 1])


# The smoothed-Brownian product: a stack of per-row products against the
# per-row ``weights @ row`` loop, and the shared read-only weight matrix


def _smoothed_paths(grid, normals):
    comp = simulate._component(SmoothedBrownian(0.05), simulate.ZeroTrend(), grid)
    block = normals.copy()
    simulate._process_paths(comp, grid, block, np.zeros(len(block)))
    return block


@pytest.mark.parametrize("count", [100, 1000])
@pytest.mark.parametrize("pinned", [False, True], ids=["default-threads", "blas-pinned"])
def test_stacked_smoothing_product_matches_the_per_row_product(count, pinned):
    from contextlib import nullcontext

    from rkfda.bench import _blas_pinned

    grid = standard_grid(count)
    normals = np.random.default_rng(count).standard_normal((60, count))
    weights = smoothing_matrix(grid, 0.05)
    want = np.cumsum(normals * np.sqrt(np.diff(grid.points, prepend=0.0)), axis=1)
    for row in want:
        row[:] = weights @ row
    with _blas_pinned() if pinned else nullcontext():
        got = _smoothed_paths(grid, normals)
    np.testing.assert_array_equal(got, want)


def test_smoothing_matrix_is_read_only_and_shared_by_equal_grids():
    first, second = standard_grid(37), make_grid(37, 1.0 / 37, 1.0)
    assert first is not second and np.array_equal(first.points, second.points)
    weights = smoothing_matrix(first, 0.05)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0
    assert smoothing_matrix(second, 0.05) is weights
    assert smoothing_matrix(first, 0.1) is not weights
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_smoothing_matrix_cache_keeps_few_matrices():
    simulate._smoothing_matrix.cache_clear()
    for count in range(10, 30):
        smoothing_matrix(standard_grid(count), 0.05)
    info = simulate._smoothing_matrix.cache_info()
    assert info.currsize == info.maxsize <= 8  # at most 8 x 8 MB at G = 1000


def test_threads_sharing_the_smoothing_cache_reproduce_the_golden_digests():
    # user threads may generate datasets concurrently, and they share the cache
    from concurrent.futures import ThreadPoolExecutor

    keys = [k for k in sorted(GOLDEN_DIGESTS) if "sB" in k[0] or k[0].startswith("M")]
    assert any(k[1] == 1000 and "sB" in k[0] for k in keys)

    def digest(key):
        model_id, count, seed_name = key
        return _digest(gen_model_dataset(builtin_catalog()[model_id], 25, standard_grid(count), GOLDEN_SEEDS[seed_name]))

    simulate._smoothing_matrix.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, more threads than cores
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(digest, keys + keys, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == [GOLDEN_DIGESTS[k] for k in keys + keys]
    assert simulate._smoothing_matrix.cache_info().hits > 0
