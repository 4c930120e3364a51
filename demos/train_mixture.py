"""Learn which scene-graph source to trust from grounding supervision.

Every training example carries two parses of the same scene: the clean
annotation and a corrupted copy with half the relations dropped and fake
ones added. The reasoner merges them with a learned weight per source.
Gradient descent on the box-matching loss should push the clean source's
weight up and the corrupted one's down, and the held-out mAP with it.
"""

import numpy as np

from deixis import (
    EvalConfig,
    ReasonerConfig,
    TrainConfig,
    TrainingExample,
    corrupt_scene_graph,
    evaluate_mixture,
    make_mixture_task,
    random_scene_graphs,
    synthesize_deivg,
    template_rulegen,
    train_mixture,
)

SOURCES = ("ground_truth", "corrupted")


def build_examples(n: int) -> list[TrainingExample]:
    graphs = random_scene_graphs(600, seed=61, min_objects=5, max_objects=9,
                                 min_relations=3, max_relations=9)
    instances = synthesize_deivg(graphs, k=1, n=n, seed=62, strict=True)
    by_id = {g.image_id: g for g in graphs}
    examples = []
    for inst in instances:
        sg = by_id[inst.image_id]
        examples.append(TrainingExample(
            instance=inst,
            program=template_rulegen(inst.structured),
            scene_graphs={
                "ground_truth": sg,
                "corrupted": corrupt_scene_graph(
                    sg, drop_rate=0.5, spurious_per_relation=8,
                    seed=1 + inst.image_id),
            },
        ))
    return examples


def main() -> None:
    examples = build_examples(300)
    train, test = examples[:240], examples[240:]

    task = make_mixture_task(SOURCES)
    reasoner_cfg = ReasonerConfig(steps=4)
    eval_cfg = EvalConfig(match_iou=0.9)

    def weights(theta):
        return dict(zip(SOURCES, 1.0 / (1.0 + np.exp(-np.asarray(theta)))))

    # Each evaluation draws its fallback boxes from a generator seeded 0.
    init_map = evaluate_mixture(task, task.params, test, reasoner_cfg, 0,
                                eval_cfg=eval_cfg)
    w0 = weights(task.params)
    print(f"before training:")
    print(f"  weights: ground_truth {w0['ground_truth']:.3f}  "
          f"corrupted {w0['corrupted']:.3f}")
    print(f"  test mAP {init_map:.4f}")

    cfg = TrainConfig(lr=1e-2, steps=80, seed=7, iou_threshold=0.8)
    result = train_mixture(task, train, cfg, reasoner_cfg)

    final_map = evaluate_mixture(task, result.theta, test, reasoner_cfg, 0,
                                 eval_cfg=eval_cfg)
    w = weights(result.theta)
    print(f"after {cfg.steps} steps:")
    print(f"  weights: ground_truth {w['ground_truth']:.3f}  "
          f"corrupted {w['corrupted']:.3f}")
    print(f"  test mAP {final_map:.4f}  (+{final_map - init_map:.4f})")
    assert w["ground_truth"] > w["corrupted"]
    assert final_map >= init_map


if __name__ == "__main__":
    main()
