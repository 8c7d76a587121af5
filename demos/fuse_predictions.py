"""Combine three unreliable observers into one channel-state call.

Three simulated users each mispredict a shared channel with their own
error rate. The demo compares hard voting rules, probability-ratio soft
combining, and a learned fusion table that is told nothing about the
error rates, then shows what the learner actually learned.

Run: python3 demos/fuse_predictions.py
"""

import numpy as np

from crspectrum.channel import ChannelParams, generate_trace
from crspectrum.fusion import (
    decode_state,
    encode_state,
    m_out_of_n,
    noisy_local_predictions,
    soft_fuse,
    train_fusion,
)

SEED = 7
ERROR_RATES = (0.1, 0.15, 0.2)


def main():
    params = ChannelParams(mean_interarrival=10.0, mean_holding=10.0)
    states = generate_trace(params, 10000, seed=SEED)
    bits = noisy_local_predictions(states, ERROR_RATES, seed=SEED + 1)
    rates = np.asarray(ERROR_RATES)

    print("local observers (error rate -> measured accuracy):")
    for i, e in enumerate(ERROR_RATES):
        acc = float(np.mean(bits[:, i] == states))
        print(f"  user {i}: configured {1 - e:.2f}, measured {acc:.4f}")

    accuracies = {}
    for m in (1, 2, 3):
        fused = m_out_of_n(bits, m)
        accuracies[f"{m}-out-of-3 vote"] = float(np.mean(fused == states))

    # soft combining weighs each vote by how believable that user is
    p_busy = np.where(bits == 1, 1.0 - rates, rates)
    soft = soft_fuse(1.0 - p_busy, p_busy)
    accuracies["soft combining"] = float(np.mean(soft == states))

    table = train_fusion(bits, states, seed=SEED + 2)
    policy = np.argmax(table, axis=1)  # ties go to idle, action 0
    learned = policy[encode_state(bits)]
    accuracies["learned fusion"] = float(np.mean(learned == states))

    print("\nfusion rules:")
    for name, acc in accuracies.items():
        print(f"  {name:15s} {acc:.4f}")

    majority = [1 if decode_state(s, 3).sum() >= 2 else 0 for s in range(8)]
    agree = sum(1 for s in range(8) if policy[s] == majority[s])
    print(f"\nlearned policy agrees with the majority vote in {agree}/8 states")
    if agree == 8:
        print(
            "for these error rates any two observers outweigh the third, so\n"
            "the best possible rule IS the majority vote; the learner found it\n"
            "without being told the rates"
        )
    else:
        print("disagreements, where trusting the best users beats counting:")
        for s in range(8):
            if policy[s] != majority[s]:
                votes = decode_state(s, 3).tolist()
                print(f"  votes {votes} -> learned {policy[s]}, majority {majority[s]}")


if __name__ == "__main__":
    main()
