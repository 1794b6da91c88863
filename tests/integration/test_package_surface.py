"""Smoke checks that the public API surface imports and is coherent."""


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        import repro
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_subpackage_alls_resolve(self):
        import importlib
        for module_name in ("repro.nn", "repro.tkg", "repro.datasets",
                            "repro.graph", "repro.core", "repro.baselines",
                            "repro.eval", "repro.training",
                            "repro.robustness", "repro.analysis"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_registry_families_complete(self):
        from repro.registry import MODEL_FAMILIES, model_names
        assert set(model_names()) == set(MODEL_FAMILIES)
