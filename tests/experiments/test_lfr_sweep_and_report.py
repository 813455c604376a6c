"""Tests for the LFR sweep experiment."""

from repro.experiments.lfr_sweep import (
    LfrSweepPoint,
    LfrSweepReport,
    run_lfr_sweep,
)
from repro.solvers.simulated_annealing import SimulatedAnnealingSolver


class TestLfrSweep:
    def test_tiny_sweep(self):
        report = run_lfr_sweep(
            n_nodes=60,
            mixings=(0.05, 0.5),
            n_communities=4,
            solver=SimulatedAnnealingSolver(
                n_sweeps=80, n_restarts=2, seed=0
            ),
            seed=3,
        )
        assert len(report.points) == 2
        easy, hard = report.points
        assert easy.mixing == 0.05
        assert 0.0 <= easy.qhd_nmi <= 1.0
        assert easy.qhd_nmi >= hard.qhd_nmi - 0.2

    def test_report_rendering(self):
        report = LfrSweepReport(
            points=[
                LfrSweepPoint(0.1, 0.9, 0.95, 0.6),
                LfrSweepPoint(0.5, 0.4, 0.5, 0.3),
            ]
        )
        text = report.to_text()
        assert "mixing" in text
        assert report.detectability_knee(threshold=0.5) == 0.1

    def test_knee_empty(self):
        report = LfrSweepReport(points=[LfrSweepPoint(0.3, 0.2, 0.2, 0.1)])
        assert report.detectability_knee(threshold=0.5) == 0.0
