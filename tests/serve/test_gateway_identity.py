"""health() carries a stable gateway/device identity (fleet rollups key on it)."""

from dataclasses import replace

from repro.core.system import TZLLM
from repro.llm import TINYLLAMA
from repro.serve import ServeGateway


def test_gateway_id_defaults_to_device_name():
    system = TZLLM(TINYLLAMA, device_name="dev-3")
    gw = ServeGateway(system)
    assert gw.gateway_id == "dev-3"
    assert gw.health()["gateway_id"] == "dev-3"


def test_gateway_id_derived_from_models_when_unnamed():
    second = replace(TINYLLAMA, model_id="tinyllama-clone", display_name="Clone")
    system = TZLLM([TINYLLAMA, second])
    gw = ServeGateway(system)
    assert gw.gateway_id == "gw:%s+%s" % tuple(
        sorted([TINYLLAMA.model_id, second.model_id])
    )


def test_explicit_gateway_id_wins():
    system = TZLLM(TINYLLAMA, device_name="dev-3")
    gw = ServeGateway(system, gateway_id="edge-7")
    assert gw.health()["gateway_id"] == "edge-7"
