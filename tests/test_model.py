import re

import numpy as np
import pytest

from nagaoka.errors import ModelParseError, ModelValidationError
from nagaoka.model import INFINITE, LatticeModel, PhononBlock, RadiationBlock, generate_lattice, load_model


def write(tmp_path, text, name="model.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_minimal_pair(tmp_path):
    path = write(tmp_path, """
[lattice]
sites = 2
0 1 1.0
[coulomb]
u = inf
""")
    model = load_model(path)
    assert model.sites == 2
    assert model.n_electrons == 1
    assert model.u_is_infinite
    assert np.array_equal(model.hopping, [[0.0, 1.0], [1.0, 0.0]])


def test_negative_hopping_names_condition(tmp_path):
    path = write(tmp_path, """
[lattice]
sites = 2
0 1 -1.0
""")
    with pytest.raises(ModelValidationError) as err:
        load_model(path)
    assert err.value.condition == "A.2"


def test_asymmetric_coupling_names_condition():
    g = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ModelValidationError) as err:
        LatticeModel(2, np.zeros((2, 2)),
                     phonon=PhononBlock(coupling=g, frequency=1.0))
    assert err.value.condition == "A.4"


def test_asymmetric_hopping_names_condition():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ModelValidationError) as err:
        LatticeModel(2, t)
    assert err.value.condition == "A.1"


def test_generate_complete():
    h = generate_lattice("complete", 4, 1.0)
    assert h.shape == (4, 4)
    assert np.all(np.diag(h) == 0.0)
    off = h[~np.eye(4, dtype=bool)]
    assert np.all(off == 1.0)


def test_generate_chain():
    assert np.array_equal(generate_lattice("chain", 3, 1.0),
                          [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_square_patch_2x2_is_four_cycle():
    h = generate_lattice("square_patch", (2, 2), 1.0)
    degrees = (h > 0).sum(axis=0)
    assert np.all(degrees == 2)          # every site has two neighbors
    assert (h > 0).sum() == 8            # four undirected edges


def test_generated_matrices_validate_and_are_deterministic():
    for name, extent in (("chain", 5), ("ring", 4), ("complete", 3),
                         ("square_patch", (2, 3)), ("triangular_patch", (2, 2))):
        a = generate_lattice(name, extent, 0.7)
        b = generate_lattice(name, extent, 0.7)
        assert np.array_equal(a, b)
        LatticeModel(a.shape[0], a)      # passes A.1/A.2 validation


def test_unknown_family_and_bad_extent():
    with pytest.raises(ModelParseError):
        generate_lattice("fcc", 4, 1.0)
    with pytest.raises(ModelParseError):
        generate_lattice("square_patch", 4, 1.0)
    with pytest.raises(ModelValidationError):
        generate_lattice("chain", 3, -1.0)


def test_parse_errors(tmp_path):
    with pytest.raises(ModelParseError):
        load_model(tmp_path / "missing.ini")
    with pytest.raises(ModelParseError):
        load_model(write(tmp_path, "[nonsense]\n"))
    with pytest.raises(ModelParseError):
        load_model(write(tmp_path, "sites = 2\n"))      # content before a section
    with pytest.raises(ModelParseError):
        load_model(write(tmp_path, "[lattice]\nsites = 2\n0 1\n"))
    with pytest.raises(ModelParseError):                 # conflicting mirrored entry
        load_model(write(tmp_path, "[lattice]\nsites = 2\n0 1 1.0\n1 0 2.0\n"))


def test_generator_extent_must_match_sites(tmp_path):
    path = write(tmp_path, """
[lattice]
sites = 3
generator = chain
extent = 4
""")
    with pytest.raises(ModelParseError):
        load_model(path)


def test_full_file_with_phonon_and_radiation(tmp_path):
    path = write(tmp_path, """
[lattice]
sites = 2
0 1 1.0
[coulomb]
u = inf
0 1 0.25
[phonon]
omega = 1.5
cutoff = 3
0 0 0.4
1 1 0.4
[radiation]
L = 6.0
kappa = 0.9
m0 = 1.0
cutoff = 2
0  -0.5 0 0
1   0.5 0 0
""")
    model = load_model(path)
    assert model.offsite_u[0, 1] == 0.25
    assert model.phonon.frequency == 1.5
    assert model.phonon.per_site_cutoff == 3
    assert model.radiation.uv_cutoff == 0.9
    assert np.allclose(model.radiation.site_positions[:, 0], [-0.5, 0.5])


def test_radiation_default_positions_line_embedding():
    model = LatticeModel(3, generate_lattice("chain", 3, 1.0),
                         radiation=RadiationBlock(box_length=4.0, uv_cutoff=1.0, mass=1.0))
    assert np.allclose(model.radiation.site_positions,
                       [[-1, 0, 0], [0, 0, 0], [1, 0, 0]])


def test_radiation_positions_outside_box_rejected():
    with pytest.raises(ModelValidationError):
        LatticeModel(3, generate_lattice("chain", 3, 1.0),
                     radiation=RadiationBlock(box_length=1.0, uv_cutoff=1.0, mass=1.0))


def test_offsite_diagonal_ignored_and_finite_u():
    u = np.array([[5.0, 1.0], [1.0, 5.0]])
    model = LatticeModel(2, np.zeros((2, 2)), onsite_u=3.0, offsite_u=u)
    assert model.offsite_u[0, 0] == 0.0
    assert model.onsite_u == 3.0
    assert not model.u_is_infinite
    with pytest.raises(ModelValidationError):
        LatticeModel(2, np.zeros((2, 2)), onsite_u=-1.0)


def test_model_matrices_frozen():
    model = LatticeModel(2, np.eye(2) * 0.0)
    with pytest.raises(ValueError):
        model.hopping[0, 1] = 5.0


def test_infinite_is_symbolic():
    assert INFINITE == float("inf")
    model = LatticeModel(2, np.zeros((2, 2)))
    assert model.onsite_u is INFINITE or model.onsite_u == INFINITE


def _with(**changes):
    sites = 3
    hopping = generate_lattice("complete", 3, 1.0)
    phonon = dict(coupling=0.5 * np.eye(sites), frequency=1.0)
    radiation = dict(box_length=4.0, uv_cutoff=1.0, mass=1.0)
    offsite = None
    for key, value in changes.items():
        if key in phonon:
            phonon[key] = value
        elif key in radiation or key in ("site_positions", "photon_cutoff"):
            radiation[key] = value
        elif key == "hopping":
            hopping = value
        else:
            offsite = value
    return LatticeModel(sites, hopping, offsite_u=offsite, phonon=PhononBlock(**phonon),
                        radiation=RadiationBlock(**radiation))


_INF_AT_02 = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]])


@pytest.mark.parametrize("changes, condition, message", [
    (dict(hopping=_INF_AT_02), "finite", "hopping entry (0, 2) = inf is not finite"),
    (dict(hopping=np.where(np.eye(3) > 0, 0.0, np.nan)), "finite", "hopping entry (0, 1) = nan"),
    (dict(offsite_u=_INF_AT_02), "finite", "offsite_u entry (0, 2) = inf"),
    (dict(coupling=np.diag([0.5, np.nan, 0.5])), "finite", "phonon coupling entry (1, 1) = nan"),
    (dict(frequency=np.inf), "phonon", "frequency must be finite and > 0, got inf"),
    (dict(box_length=np.inf), "radiation", "box_length must be finite and > 0, got inf"),
    (dict(uv_cutoff=np.inf), "radiation", "uv_cutoff must be finite and > 0, got inf"),
    (dict(mass=np.nan), "radiation", "mass must be finite and > 0, got nan"),
    (dict(site_positions=np.array([[-1.0, 0, 0], [0, np.nan, 0], [1, 0, 0]])), "radiation",
     "site_positions must be finite"),
    (dict(photon_cutoff=-1), "radiation", "photon_cutoff must be >= 0"),
    # a model file mirrors its triplets and gives one position row per site
    (dict(offsite_u=np.triu(np.ones((3, 3)), 1)), "A.1", "offsite_u asymmetric at (0, 1)"),
    (dict(site_positions=np.zeros((2, 3))), "radiation",
     "site_positions must be (3, 3), got (2, 3)"),
], ids=["hopping-inf", "hopping-nan", "offsite-inf", "coupling-nan", "omega-inf", "L-inf",
        "kappa-inf", "m0-nan", "position-nan", "photon-cutoff", "offsite-asymmetric",
        "positions-shape"])
def test_non_finite_model_values_name_their_condition(changes, condition, message):
    assert _with().sites == 3                 # the base model is valid
    with pytest.raises(ModelValidationError, match=re.escape(message)) as err:
        _with(**changes)
    assert err.value.condition == condition


@pytest.mark.parametrize("text, where", [
    ("sites = 3.5\n", "[lattice] sites, got '3.5'"),
    ("sites = 3\ngenerator = chain\nextent = a\n", "[lattice] extent, got 'a'"),
    ("sites = 3\n0 x 1.0\n", "line 3, got 'x'"),
    ("sites = 3\nx 1 1.0\n", "line 3, got 'x'"),
    ("sites = 2\n0 1 1.0\n[phonon]\nomega = 1.0\ncutoff = 2.5\n", "[phonon] cutoff, got '2.5'"),
    ("sites = 2\n0 1 1.0\n[radiation]\nL = 4\nkappa = 1\nm0 = 1\ncutoff = one\n",
     "[radiation] cutoff, got 'one'"),
])
def test_model_file_integers_name_their_field(tmp_path, text, where):
    with pytest.raises(ModelParseError, match=re.escape(f"expected an integer at {where}")):
        load_model(write(tmp_path, "[lattice]\n" + text))
