"""Words, the L/M/R substitutions, limit words, and the s-map.

Everything downstream rests on exact eventually periodic binary words
(text format PRE(PER)) and the three substitutions

    L: 0 -> 0, 1 -> 10     M: 0 -> 01, 1 -> 10     R: 0 -> 01, 1 -> 1
"""

from doublebase import (
    Word,
    apply,
    inf1,
    limit_word,
    node_boundaries,
    parse_directive,
    parse_word,
    reflect,
    s_map,
    sup0,
)

u = parse_word("01(10)")
print(f"u = {u} starts {u.prefix(12)}...")
print(f"reflect(u) = {reflect(u)}, sup0(u) = {sup0(u)}, inf1(u) = {inf1(u)}")
print(f"0(10) parses to {parse_word('0(10)')} (canonical form merges the phase)")
print()

print("images of 0^inf under single substitutions:")
for letter in "LMR":
    print(f"  {letter}(0^inf) = {apply(letter, Word('', '0'))}")
print(f"composite: LM(0^inf) = {apply('LM', Word('', '0'))}")
print()

tm = limit_word(parse_directive("(M)"), 0)
print(f"Thue-Morse word, the limit of M^n(0): {tm.prefix(32)}...")
fib = limit_word(parse_directive("(LR)"), 0)
print(f"Fibonacci word, the limit of (LR)^n(0): {fib.prefix(32)}...")
print()

print("the six boundary words of the root node (sigma = M):")
nb = node_boundaries("")
for key, word in nb.as_dict().items():
    print(f"  {key:>4} = {word}")
print()

print("the s-map locates a word in the directive-tree partition:")
for text in ["(0)", "(01)", "(010)", "(0110)", "01(10)", "0(1)"]:
    print(f"  s({text:>7}) = {s_map(parse_word(text))}")
print(f"  s(Thue-Morse), walked 8 levels deep: {s_map(tm, max_depth=8)}")
