"""Reported-not-asserted diagnostics.

Two facts are deliberately logged instead of asserted: the certificate uses
a measured trajectory radius in place of an unavailable closed-form one, so
the gap comparison is a soft check; and removing edges can raise individual
row sums of the normalized adjacency, so the post-drop norm is reported
empirically rather than assumed smaller.
"""

from transgap.activations import ActivationSpec
from transgap.bounds import BoundInputs, gap_certificate, initial_bounds
from transgap.constants import constants_report
from transgap.datasets import make_split, sbm_bundle
from transgap.graphs import drop_edge, normalized_adjacency, sbm_generate
from transgap.models import ModelSpec, PropOps, init_params
from transgap.training import LrSchedule, SgdConfig, run_sgd


def test_soft_certificate_covers_measured_gap_desk_scale():
    bundle = sbm_bundle([15, 15], 0.3, 0.05, seed=8, d=4, signal=1.5)
    spec = ModelSpec(arch="gcn", d=4, h=4, num_classes=2,
                     activation=ActivationSpec(q=2.0))
    p = normalized_adjacency(bundle.graph)
    ops = PropOps(p, spec)
    split = make_split(bundle.n, 0.4, seed=1)
    w1 = init_params(spec, 1)
    cfg = SgdConfig(big_t=50, seed=1,
                    schedule=LrSchedule("inverse_time", 1.0, 10.0),
                    eval_every=50)
    _, trace = run_sgd(spec, ops, bundle.x, bundle.labels, split, cfg, w0=w1)
    last = trace.checkpoints[-1]
    measured_gap = abs(last.r_m - last.r_u)
    rep = constants_report(spec, p, bundle.x, w1)
    b_loss, b_grad, _ = initial_bounds(spec, ops, bundle.x, bundle.labels, w1)
    cert = gap_certificate(BoundInputs(
        m=split.m, u=split.u, dim=w1.size, big_t=50, delta=0.1, alpha=1.0,
        l_f=rep.l_f, radius=trace.max_dist, b_loss=b_loss, b_grad=b_grad))
    status = "holds" if measured_gap <= cert.total else "VIOLATED"
    print(f"soft check (measured-R certificate): gap={measured_gap:.4g} "
          f"<= total={cert.total:.4g} -> {status}")
    # soft check by design: the radius surrogate replaces an unavailable
    # closed form, so violations are logged, never asserted


def test_edge_drop_norm_reported_not_asserted():
    rises = 0
    for seed in range(20):
        g, _ = sbm_generate([15, 15], 0.3, 0.08, seed=seed)
        before = normalized_adjacency(g).inf_norm
        after = normalized_adjacency(drop_edge(g, 0.3, seed=seed + 100)).inf_norm
        rises += int(after > before + 1e-12)
    print(f"edge-drop norm report: rose in {rises}/20 seeded drops "
          "(reported empirically; no inequality is assumed)")
    assert True
