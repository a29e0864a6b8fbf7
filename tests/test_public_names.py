import importlib
import pkgutil

import entdist


def test_every_all_name_resolves():
    # a stale entry breaks ``from entdist.<module> import *``
    modules = [entdist] + [
        importlib.import_module(f"entdist.{info.name}") for info in pkgutil.iter_modules(entdist.__path__)
    ]
    assert {"entdist.decoder", "entdist.pauli", "entdist.purify", "entdist.werner"} <= {
        module.__name__ for module in modules
    }
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_package_exports_pauli_type_and_commutation():
    # the Pauli product, weight and order key are test oracles (decoder_oracle)
    assert entdist.pauli.__all__ == ["PauliString", "commutes_with"]
    assert entdist.__all__ == ["PauliString", "commutes_with", "__version__"]
