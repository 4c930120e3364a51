#!/usr/bin/env bash
# End-to-end tour of the command line: synthesize data, reason over
# scenes, score the output, and train mixture weights. Everything runs
# offline in a throwaway directory and finishes in a few seconds.
set -euo pipefail

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

step() { printf '\n=== %s ===\n' "$1"; }

step "write a small scene-graph corpus"
python3 - <<'EOF'
import json
from deixis import random_scene_graphs
from deixis.scene import scene_graph_to_dict

graphs = random_scene_graphs(60, seed=8)
with open("scene_graphs.json", "w", encoding="utf-8") as fh:
    json.dump([scene_graph_to_dict(g) for g in graphs], fh, indent=2)
print(f"wrote {len(graphs)} scene graphs")
EOF

step "synthesize a grounding dataset from the corpus"
deixis synth --kind deivg --scene-graphs scene_graphs.json \
    --k 2 --n 8 --seed 3 --output deivg.json
python3 -c "
import json
with open('deivg.json') as fh:
    d = json.load(fh)
print('first prompt:', d[0]['deictic_prompt'])
"

step "synthesize list-operation puzzles"
deixis synth --kind deiclevr --operation sort --n 6 --seed 3 \
    --output deiclevr.json

step "reason: structured conditions against every scene"
deixis reason --scene-graphs scene_graphs.json \
    --structured '[["on","street"]]' --output predictions.json
python3 -c "
import json
with open('predictions.json') as fh:
    results = json.load(fh)['results']
hits = [r for r in results if any(not p['fallback'] for p in r['predictions'])]
print(f'{len(hits)} of {len(results)} scenes contain a real match')
"

step "reason: load rules from a program file instead"
cat > rules.pl <<'EOF'
cond1(X):-on(X,Y),type(Y,street).
target(X):-cond1(X).
EOF
deixis reason --scene-graphs scene_graphs.json --program rules.pl \
    --output predictions2.json
python3 -c "
import json
with open('predictions.json') as a, open('predictions2.json') as b:
    same = json.load(a)['results'] == json.load(b)['results']
print('same predictions either way:', same)
"

step "every output comes with a manifest for reproducibility"
python3 -c "
import json
with open('predictions.json.manifest.json') as fh:
    m = json.load(fh)
print('command:', m['command'])
print('config hash:', m['config_hash'][:16], '...')
print('versions:', m['versions'])
"

step "score the dataset's own answers (a perfect run)"
deixis eval --data deivg.json --scene-graphs scene_graphs.json \
    --match-iou 0.9 --output report.json

step "train mixture weights on clean vs corrupted graphs"
deixis synth --kind deivg --scene-graphs scene_graphs.json \
    --k 1 --n 40 --seed 4 --output train_data.json
deixis train --data train_data.json --scene-graphs scene_graphs.json \
    --out-dir run --steps 25 --train-n 24 --val-n 8 --test-n 8 --seed 7
python3 -c "
import json
with open('run/summary.json') as fh:
    s = json.load(fh)
print('learned weights:', {k: round(v, 3) for k, v in s['weights'].items()})
print('test mAP:', round(s['init_test_map'], 3), '->',
      round(s['final_test_map'], 3))
"

step "defaults can live in a config file; explicit flags still win"
cat > defaults.json <<'EOF'
{"scene-graphs": "scene_graphs.json", "gamma": 0.01, "match-iou": 0.9}
EOF
deixis --config defaults.json reason --structured '[["on","street"]]' \
    --output predictions3.json
python3 -c "
import json
with open('predictions3.json.manifest.json') as fh:
    print('gamma from config:', json.load(fh)['config']['gamma'])
"

printf '\nwalkthrough complete.\n'
