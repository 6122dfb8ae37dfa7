"""Shared fixtures: the built-in models with their plug-in measures and
moment bundles."""

from __future__ import annotations

import pytest

import gel_expand as gx
from gel_expand.harness import ModelBundle, model_bundle


@pytest.fixture(scope="session")
def bundles() -> dict[str, ModelBundle]:
    return {name: model_bundle(gx.build_model(name)) for name in gx.MODEL_NAMES}


@pytest.fixture(scope="session")
def mean_var(bundles) -> ModelBundle:
    return bundles["MeanVarModel"]


@pytest.fixture(scope="session")
def skew(bundles) -> ModelBundle:
    return bundles["SkewModel"]


@pytest.fixture(scope="session")
def just_ident(bundles) -> ModelBundle:
    return bundles["JustIdentModel"]
