"""The CLI's training defaults come from TrainConfig and the model module."""

from dataclasses import fields

from vnls import TrainConfig
from vnls import cli
from vnls.states import DEFAULT_ALPHA


def test_cli_defaults_are_train_config_defaults():
    args = cli.build_parser().parse_args(["solve", "--ising", "4", "10"])
    config = cli._train_config(cli._options(args, cli._DEFAULTS.keys()))
    for f in fields(TrainConfig):
        assert getattr(config, f.name) == getattr(TrainConfig(), f.name), f.name
    assert cli._DEFAULTS["lr"] == TrainConfig().learning_rate
    assert cli._DEFAULTS["alpha"] == DEFAULT_ALPHA
