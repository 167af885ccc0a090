"""The key=value config reader."""

import pytest

from vaxcred.config import DEFAULT_JOB_TYPES, Config, parse_config
from vaxcred.errors import ConfigError


def test_parse_config_reads_the_two_keys():
    config = parse_config(
        "# deployment settings\n"
        "\n"
        "dose_interval_days = 28\n"
        "job_types = healthcare, transit  # trailing comment\n"
    )
    assert config == Config(job_types=("healthcare", "transit"), dose_interval_days=28)
    assert parse_config("") == Config(job_types=DEFAULT_JOB_TYPES)


@pytest.mark.parametrize(
    "text",
    [
        "rotation_period=30",  # a removed key is refused, not silently ignored
        "required_level=1",
        "dose_interval_days=soon",
        "dose_interval_days=-1",
        "job_types=",
        "no equals sign",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)
