"""The complete graphs K_n held to their closed-form spectrum
(``complete_graph_oracle``): the dense spectrum of every sector up to K_9,
and ``ed --all`` up to K_14, far past dense sizes."""

import json
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from nagaoka.cli import main
from nagaoka.hamiltonian import assemble_nagaoka_sector
from nagaoka.model import LatticeModel, generate_lattice
from nagaoka.sector import sector_magnetizations
from complete_graph_oracle import ground, levels, spectrum

# largest deviation of an ed --all row from the closed form on K_3 to K_14
# was 2.3e-14 in E0 and gap and 3.6e-13 in <S^2>
ENERGY_TOL = 1e-12
STOT2_TOL = 1e-11


@pytest.mark.parametrize("sites", range(2, 10), ids=lambda n: f"K{n}")
def test_closed_form_is_the_dense_spectrum(sites):
    model = LatticeModel(sites, generate_lattice("complete", sites, 1.0))
    ms = [m for m in sector_magnetizations(sites) if m >= 0]
    counts = {}
    for m in ms:
        dense = np.linalg.eigvalsh(assemble_nagaoka_sector(model, m).op.matrix.toarray())
        assert np.allclose(dense, spectrum(sites, m), rtol=0.0, atol=ENERGY_TOL), m
        counts[m] = Counter(np.rint(dense).astype(int).tolist())
    # sector M holds every level of spin S >= |M| once, so the levels of
    # spin M are the count in sector M less the count in sector M + 1
    for m in ms:
        spin_m = Counter()
        for e, mult, s in levels(sites, m):
            if s == m:
                spin_m[round(e)] += mult
        assert counts[m] - counts.get(m + 1, Counter()) == spin_m, m


@pytest.mark.parametrize("sites", range(3, 15), ids=lambda n: f"complete{n}")
def test_ed_all_matches_the_closed_form(capsys, tmp_path, sites):
    path = tmp_path / f"complete{sites}.ini"
    path.write_text(f"[lattice]\nsites = {sites}\ngenerator = complete\nextent = {sites}\n"
                    "t = 1.0\n[coulomb]\nu = inf\n")
    assert main(["ed", "--all", "--model", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [Fraction(row["m"]) for row in rows] == sector_magnetizations(sites)
    for row in rows:
        m = Fraction(row["m"])
        e0, gap, degeneracy, spin = ground(sites, abs(m))
        assert row["dimension"] == sites * comb(sites - 1, (sites - 1 + int(2 * m)) // 2)
        assert (row["degeneracy"], Fraction(row["resolved_s"])) == (degeneracy, spin), m
        assert abs(row["ground_energy"] - e0) <= ENERGY_TOL, m
        assert abs(row["gap"] - gap) <= ENERGY_TOL, m
        assert abs(row["stot2_expectation"] - spin * (spin + 1)) <= STOT2_TOL, m
