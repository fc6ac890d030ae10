"""Tests for declarative grid specs: expansion, hashing, fault DSL."""

import pytest

from repro.experiments.gridspec import (
    ENGINES,
    PROFILES,
    FaultSpec,
    GridCell,
    GridSpec,
    engine_backend,
    load_spec,
)


def tiny_spec(**overrides) -> GridSpec:
    base = dict(
        name="tiny",
        engines=("lic-fast", "lid-fast", "lid-service", "resilient"),
        families=("er", "ba"),
        sizes=(12,),
        quotas=(2,),
        churn=(0, 4),
        faults=("none", "loss=0.2"),
        seeds=(0, 1),
    )
    base.update(overrides)
    return GridSpec(**base)


class TestFaultSpec:
    def test_parse_none(self):
        assert FaultSpec.parse("none").is_clean
        assert FaultSpec.parse("clean") == FaultSpec()
        assert FaultSpec.parse("none").label() == "none"

    def test_roundtrip_label(self):
        f = FaultSpec(loss=0.3, crash=0.05, partition=True, byzantine=0.1)
        assert FaultSpec.parse(f.label()) == f

    def test_parse_aliases_and_order(self):
        a = FaultSpec.parse("byzantine=0.1+loss=0.3")
        b = FaultSpec.parse("loss=0.3+byz=0.1")
        assert a == b
        assert a.label() == "loss=0.3+byz=0.1"  # canonical term order

    @pytest.mark.parametrize("bad", [
        "loss", "warp=0.1", "loss=0.1+loss=0.2", "loss=1.5", "byz=0.9",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)


class TestExpansion:
    def test_compatibility_rules(self):
        spec = tiny_spec()
        cells = spec.cells()
        for c in cells:
            if c.fault != "none":
                assert c.engine == "resilient"
            if c.engine == "resilient":
                assert c.family == "er"
            # churn is exactly a lid-service cell's trace length
            assert bool(c.churn) == (c.engine == "lid-service")
        # static: 2 engines x 2 fams x 2 seeds; churn: lid-service only,
        # 2 fams x 2 seeds; resilient: er only, 2 faults x 2 seeds
        assert len(cells) == 8 + 4 + 4

    def test_cells_deterministic_and_unique(self):
        spec = tiny_spec()
        ids = [c.cell_id for c in spec.cells()]
        assert ids == [c.cell_id for c in spec.cells()]
        assert len(set(ids)) == len(ids)

    def test_cell_ids_filename_safe(self):
        for c in tiny_spec().cells():
            assert "/" not in c.cell_id and "=" not in c.cell_id
            assert " " not in c.cell_id

    def test_zero_compatible_cells_rejected(self):
        # a churn-only sweep expands only on lid-service
        for engine in ("lid-fast", "lic-fast"):
            with pytest.raises(ValueError, match="zero compatible"):
                GridSpec(name="x", engines=(engine,), churn=(5,)).cells()

    def test_engine_backend(self):
        assert engine_backend("lic-fast") == "fast"
        assert engine_backend("lid-reference") == "reference"
        for engine in ("resilient", "lid-service", "lid-truncated"):
            with pytest.raises(ValueError, match="no reference/fast backend"):
                engine_backend(engine)


class TestValidation:
    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            tiny_spec(engines=("warp",))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            tiny_spec(families=("torus",))

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="at least one"):
            tiny_spec(seeds=())

    def test_density_degree_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            tiny_spec(families=("er",), density=0.3, degree=8.0)

    def test_density_requires_er_only(self):
        with pytest.raises(ValueError, match="er"):
            tiny_spec(density=0.3)  # families includes "ba"

    @pytest.mark.parametrize("knob", [{"density": 0.3}, {"degree": 8.0}])
    def test_service_engine_rejects_density_and_degree(self, knob):
        # a lid-service cell builds its overlay from the family alone,
        # so the knob would silently not apply to it
        with pytest.raises(ValueError, match="lid-service"):
            tiny_spec(families=("er",), **knob)
        # accepted once no engine of the spec ignores it
        tiny_spec(families=("er",), engines=("lic-fast", "lid-fast"), **knob)

    def test_bad_name(self):
        with pytest.raises(ValueError, match="name"):
            tiny_spec(name="has spaces")

    def test_fault_strings_canonicalised(self):
        spec = tiny_spec(faults=("byzantine=0.1+loss=0.3",))
        assert spec.faults == ("loss=0.3+byz=0.1",)


class TestHashing:
    def test_hash_stable(self):
        assert tiny_spec().spec_hash() == tiny_spec().spec_hash()

    def test_hash_changes_with_any_field(self):
        base = tiny_spec().spec_hash()
        assert tiny_spec(sizes=(13,)).spec_hash() != base
        assert tiny_spec(seeds=(0,)).spec_hash() != base
        assert tiny_spec(suspect_after=6.0).spec_hash() != base
        assert tiny_spec(name="tiny2").spec_hash() != base

    def test_profile_hashes_are_pinned(self):
        # the hash keys every stored cell: a changed profile re-keys
        # every store built from it
        assert PROFILES["smoke"].spec_hash() == "e6691d54f6e2"
        assert PROFILES["faults"].spec_hash() == "126c17759650"

    def test_mapping_roundtrip_preserves_hash(self):
        spec = tiny_spec()
        again = GridSpec.from_mapping(spec.to_mapping())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown grid-spec keys"):
            GridSpec.from_mapping({"name": "x", "engines": ["lic-fast"],
                                   "warp": 9})


class TestTomlAndProfiles:
    def test_toml_roundtrip(self, tmp_path):
        pytest.importorskip("tomllib")
        spec = tiny_spec()
        lines = []
        for key, value in spec.to_mapping().items():
            if value is None:
                continue
            if isinstance(value, str):
                lines.append(f'{key} = "{value}"')
            elif isinstance(value, bool):
                lines.append(f"{key} = {str(value).lower()}")
            elif isinstance(value, list):
                items = ", ".join(
                    f'"{v}"' if isinstance(v, str) else str(v) for v in value
                )
                lines.append(f"{key} = [{items}]")
            else:
                lines.append(f"{key} = {value}")
        path = tmp_path / "spec.toml"
        path.write_text("\n".join(lines) + "\n")
        assert GridSpec.from_toml(path) == spec

    def test_load_spec_resolves_profiles(self):
        assert load_spec("smoke") is PROFILES["smoke"]
        assert load_spec(PROFILES["smoke"]) is PROFILES["smoke"]

    def test_profiles_expand(self):
        for name, spec in PROFILES.items():
            cells = spec.cells()
            assert cells, name
            assert all(isinstance(c, GridCell) for c in cells)

    def test_smoke_profile_covers_every_engine(self):
        engines = {c.engine for c in PROFILES["smoke"].cells()}
        assert engines == set(ENGINES)


class TestServiceEngine:
    def test_service_cells_require_churn(self):
        spec = tiny_spec(engines=("lid-service",), faults=("none",))
        cells = spec.cells()
        assert cells
        assert all(c.churn > 0 for c in cells)

    def test_service_cells_reject_faults(self):
        spec = tiny_spec(engines=("lid-service",))
        assert all(c.fault == "none" for c in spec.cells())

    def test_service_knob_validation(self):
        with pytest.raises(ValueError, match="unknown service workload"):
            tiny_spec(service_workload="tsunami")
        with pytest.raises(ValueError, match="service_differential_every"):
            tiny_spec(service_differential_every=-1)

    def test_service_knobs_change_spec_hash(self):
        base = tiny_spec().spec_hash()
        assert tiny_spec(service_workload="storm").spec_hash() != base
        assert tiny_spec(service_differential_every=10).spec_hash() != base

    def test_smoke_profile_includes_service_engine(self):
        engines = {c.engine for c in PROFILES["smoke"].cells()}
        assert "lid-service" in engines
