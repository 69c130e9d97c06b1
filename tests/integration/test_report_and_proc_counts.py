"""Integration: the report writer and non-default processor counts."""

import numpy as np
import pytest

from repro.apps.em3d import Em3dGraph, Em3dParams, reference_steps, run_ccpp_em3d, run_splitc_em3d
from repro.apps.lu import LuParams, LuWorkload, reference_lu, run_ccpp_lu, run_splitc_lu
from repro.apps.water import WaterParams, WaterSystem, reference_water, run_splitc_water
from repro.experiments.report import write_all


class TestReportWriter:
    def test_write_all_selected_artifacts(self, tmp_path):
        paths = write_all(tmp_path, quick=True, iters=5, artifacts=("table1", "table4"))
        names = {p.name for p in paths}
        assert names == {"table1.txt", "table4.txt", "table4.csv"}
        for p in paths:
            assert p.exists() and p.stat().st_size > 0

    def test_write_all_is_idempotent(self, tmp_path):
        write_all(tmp_path, artifacts=("table1",))
        paths = write_all(tmp_path, artifacts=("table1",))
        assert paths[0].read_text().startswith("Table 1")


class TestOtherProcCounts:
    """The runtimes are not hard-wired to the paper's 4 processors."""

    def test_em3d_on_two_procs(self):
        graph = Em3dGraph(Em3dParams(n_nodes=32, degree=4, n_procs=2, pct_remote=0.8))
        ref = reference_steps(graph, 2)
        sc = run_splitc_em3d(graph, steps=1, version="ghost", warmup_steps=1)
        cc = run_ccpp_em3d(graph, steps=1, version="ghost", warmup_steps=1)
        assert np.allclose(sc.values, ref)
        assert np.allclose(cc.values, ref)

    def test_em3d_on_eight_procs(self):
        graph = Em3dGraph(Em3dParams(n_nodes=64, degree=4, n_procs=8, pct_remote=0.5))
        ref = reference_steps(graph, 1)
        sc = run_splitc_em3d(graph, steps=1, version="bulk", warmup_steps=0)
        assert np.allclose(sc.values, ref)

    def test_water_on_two_procs(self):
        system = WaterSystem(WaterParams(n_molecules=8, n_procs=2, steps=2))
        ref_pos, _, ref_pot = reference_water(system, 2)
        res = run_splitc_water(system, version="prefetch")
        assert np.allclose(res.positions, ref_pos)
        assert np.isclose(res.potential, ref_pot)

    def test_lu_on_two_procs(self):
        work = LuWorkload(LuParams(n=32, block=8, n_procs=2))
        ref = reference_lu(work)
        assert np.allclose(run_splitc_lu(work).packed, ref)
        assert np.allclose(run_ccpp_lu(work).packed, ref)

    def test_lu_on_eight_procs(self):
        work = LuWorkload(LuParams(n=64, block=8, n_procs=8))
        ref = reference_lu(work)
        assert np.allclose(run_splitc_lu(work).packed, ref)
