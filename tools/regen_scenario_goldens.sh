#!/bin/sh
# Regenerate the golden files the scenario-regression suite pins
# (tests/scenario/golden/<name>.{row,jsonl} and dutycycle.csv) from
# the shipped scenarios. Run after an intentional behaviour change,
# review the diff, and commit the new goldens together with the
# change:
#
#     tools/regen_scenario_goldens.sh [builddir]   # default: build
#
# The outputs are byte-identical for any --jobs, so the job count
# here is only a speed knob.
set -eu

root=$(dirname "$0")/..
build=${1:-build}
run="$build/tools/snap-run"

if [ ! -x "$run" ]; then
    echo "error: $run not built (cmake --build $build --target snap-run)" >&2
    exit 1
fi

for scn in "$root"/examples/scenarios/*.scn; do
    name=$(basename "$scn" .scn)
    "$run" --scenario="$scn" --jobs 2 \
        --row="$root/tests/scenario/golden/$name.row" \
        --metrics="$root/tests/scenario/golden/$name.jsonl" \
        > /dev/null
    echo "regenerated golden for $name"
done

# The CSV format is pinned on one scenario.
"$run" --scenario="$root/examples/scenarios/dutycycle.scn" --jobs 2 \
    --metrics-format=csv \
    --metrics="$root/tests/scenario/golden/dutycycle.csv" > /dev/null
echo "regenerated CSV golden for dutycycle"
