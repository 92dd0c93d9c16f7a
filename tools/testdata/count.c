/* count.c: three dbgout words, then halt (snapcc flag tests). */
handler main() {
    int i = 0;
    while (i < 3) {
        __dbgout(i);
        i = i + 1;
    }
    __halt();
}
