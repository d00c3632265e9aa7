"""Report formatting shared by every module that writes JSON."""

import json


def _f(x) -> str:
    return repr(float(x))


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(payload))
