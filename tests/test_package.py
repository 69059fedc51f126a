import lissim

# deleted from the package, or moved with the sphere quadrature into tests/oracles.py
REMOVED = ("AccuracyWarning", "FieldModel", "InvalidGeometryError", "custom_geometry",
           "departure_angle", "distance", "field_at", "radiated_power_quadrature")


def test_star_import_binds_exactly_all_and_every_entry_resolves():
    namespace = {}
    exec("from lissim import *", namespace)
    del namespace["__builtins__"]
    assert len(set(lissim.__all__)) == len(lissim.__all__)
    assert sorted(namespace) == sorted(lissim.__all__)
    for name in lissim.__all__:
        assert namespace[name] is getattr(lissim, name)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in lissim.__all__
        assert not hasattr(lissim, name)
