#!/bin/sh
# Write the outputs that tools/compare_outputs.py compares.
#
# Usage: tools/make_outputs.sh TREE OUT_DIR
#
# Runs the crackid source tree TREE (a checkout holding src/crackid) on the
# default configuration, an empty config file, in one process with one BLAS
# thread: the recipe that tools/roundoff_envelope.py's run_recipe writes
# down, per load case `measure` and then the 200-iteration `identify
# --dump-gradients` on that measurement; then `gradient-check` under the
# contact load and under the stretch load. A gradient check that fails
# (exit 4) still writes its file, and the recipe goes on. The outputs go to
# OUT_DIR/m_LOAD, OUT_DIR/i_LOAD, OUT_DIR/g and OUT_DIR/g_stretch. Two
# trees are compared with
#
#   tools/make_outputs.sh PARENT a && tools/make_outputs.sh . b &&
#   tools/compare_outputs.py a b
#
# and tools/roundoff_envelope.py PARENT env measures how far roundoff alone
# moves these outputs; tools/compare_outputs.py --envelope
# env/envelope.json a b sets each difference against it.

set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUT_DIR" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$tree/src:$(cd "$(dirname "$0")" && pwd)"
config="$out/empty.cfg"
: > "$config"

python3 -c 'import sys, roundoff_envelope; roundoff_envelope.run_recipe(*sys.argv[1:])' \
    "$out" "$config"
