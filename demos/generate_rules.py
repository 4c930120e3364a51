"""Turn a natural-language description into a validated logic program.

The generator wraps a chat model: a fixed system prompt, a few worked
examples, then the new description. Replies are parsed and validated;
an invalid reply triggers one repair round that quotes the error back.
This demo runs fully offline against a canned-reply client and shows
both the happy path and the repair path.
"""

import json
import tempfile

from deixis import (
    FixtureClient,
    FormatError,
    RulegenConfig,
    build_prompt,
    generate_program,
    render_program,
    validate_rules,
)

DEICTIC = "a dog that is sitting on a bench"
PREDICATES = ("on", "sitting on", "near", "type")

GOOD_REPLY = "cond1(X):-sittingOn(X,Y),type(Y,bench).\ncond2(X):-type(X,dog).\ntarget(X):-cond1(X),cond2(X)."
BAD_REPLY = "cond1(X):-sittingOn(X,Y),type(y,bench)."
REPAIR_PROMPT = ("The rules you produced were invalid: {error}\n"
                 "Reply with corrected rules only, one per line, in the "
                 "required format.")


def run(label: str, fixture: list[dict]) -> None:
    print(f"--- {label} ---")
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fixture.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fixture, fh)
        client = FixtureClient.load(path)
    program, meta = generate_program(DEICTIC, RulegenConfig(), client=client,
                                     predicates=PREDICATES)
    print(render_program(program))
    print(f"repaired: {meta['repaired']}\n")


def main() -> None:
    bundle = build_prompt(DEICTIC, PREDICATES)
    print("prompt sent to the model:")
    print("  " + bundle.user.replace("\n", "\n  "))
    print()

    run("clean reply", [
        {"request": bundle.user, "response": GOOD_REPLY},
    ])

    # The first reply defines a condition but never a target rule; the
    # generator quotes the validation error back and accepts the fix.
    try:
        validate_rules(BAD_REPLY)
        raise AssertionError("expected the bad reply to be rejected")
    except FormatError as exc:
        error_text = str(exc)
        print(f"validator said: {error_text}\n")
    run("reply that needs one repair round", [
        {"request": bundle.user, "response": BAD_REPLY},
        {"request": REPAIR_PROMPT.format(error=error_text),
         "response": GOOD_REPLY},
    ])


if __name__ == "__main__":
    main()
