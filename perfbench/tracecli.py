"""Run the ffell command line in this process under the tracer.

    python3 perfbench/tracecli.py LAYERS_JSON ARG...

Used by the traced lfun_top run: the same command the untraced run starts
as `python -m ffell.cli ARG...`, with the per-layer metrics of the call
written to LAYERS_JSON and its spans beside it.  Exits as the CLI would.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import common
import tracing


def main() -> int:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    common.load_program()
    import click
    from ffell import cli
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_pass()
    code = 0
    try:
        with tracer.op_span(), tracer.span("cli.main"):
            cli.main(args, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        out.write_text(json.dumps({"layers": tracer.end_pass()}))
        tracer.dump(out.with_suffix(".spans.json.gz"))
    return code


if __name__ == "__main__":
    sys.exit(main())
