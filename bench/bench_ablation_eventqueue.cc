/**
 * @file
 * Ablation for the hardware event queue (section 3 design claim).
 *
 * SNAP/LE dispatches events in hardware: a token at the head of the
 * queue indexes the handler table directly. A conventional design
 * runs a software scheduler instead. We emulate the software path on
 * SNAP/LE itself: the timer handler merely enqueues a task id into a
 * DMEM ring, and a dispatcher drains the ring, looks the handler up
 * in a software table and calls it — TinyOS's structure, executed on
 * SNAP. The instruction-count delta is the price of software
 * scheduling that the hardware queue eliminates.
 */

#include <cstdio>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "common.hh"
#include "net/parallel_network.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

/** Blink with a software task queue layered on top (TinyOS style). */
const char *kSoftSchedBlink = R"(
        jmp main
)";

const char *kSoftSchedBody = R"(
        .equ SQ_BASE, 200      ; software task queue (ids)
        .equ SQ_HEAD, 216
        .equ SQ_TAIL, 217
        .equ SQ_CNT, 218
        .equ TASKTBL, 220      ; task id -> handler address
        .equ LED, 230
        .equ PERIOD, 10000

main:
        li   sp, 1024
        li   r1, EV_T0
        la   r2, on_timer
        setaddr r1, r2
        clr  r1
        stw  r1, SQ_HEAD(r0)
        stw  r1, SQ_TAIL(r0)
        stw  r1, SQ_CNT(r0)
        stw  r1, LED(r0)
        ; register task 0 = blink handler
        la   r1, task_blink
        stw  r1, TASKTBL(r0)
        li   r1, 0
        li   r2, PERIOD
        schedlo r1, r2
        done

; Timer event: post task id 0 into the software queue, then run the
; software scheduler loop (the TinyOS pattern, on SNAP hardware).
on_timer:
        ; post(0)
        ldw  r1, SQ_TAIL(r0)
        clr  r2
        stw  r2, SQ_BASE(r1)   ; enqueue task id 0
        inc  r1
        andi r1, 7
        stw  r1, SQ_TAIL(r0)
        ldw  r1, SQ_CNT(r0)
        inc  r1
        stw  r1, SQ_CNT(r0)
        ; scheduler: drain the queue
sched:
        ldw  r1, SQ_CNT(r0)
        beqz r1, sched_done
        dec  r1
        stw  r1, SQ_CNT(r0)
        ldw  r2, SQ_HEAD(r0)
        ldw  r3, SQ_BASE(r2)   ; task id
        inc  r2
        andi r2, 7
        stw  r2, SQ_HEAD(r0)
        ldw  r4, TASKTBL(r3)   ; handler address
        jalr lr, r4
        jmp  sched
sched_done:
        li   r1, 0
        li   r2, PERIOD
        schedlo r1, r2
        done

task_blink:
        ldw  r1, LED(r0)
        xori r1, 1
        stw  r1, LED(r0)
        dbgout r1
        ret
)";

double
measure(const std::string &program)
{
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "blink";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(cfg, assembler::assembleSnap(program));
    net.start();
    net.runFor(5 * sim::kMillisecond);
    Snapshot before = Snapshot::of(n);
    const int blinks = 20;
    net.runFor(blinks * 10 * sim::kMillisecond);
    Episode e = Episode::between(before, Snapshot::of(n));
    return double(e.instructions) / blinks;
}

} // namespace

int
main()
{
    banner("Ablation: hardware event queue vs software task scheduler "
           "(on SNAP/LE)");

    double hw = measure(apps::blinkProgram(10000));
    double sw = measure(std::string(kSoftSchedBlink) +
                        apps::commonDefs() + kSoftSchedBody);

    std::printf("%-52s %10s\n", "", "ins/blink");
    rule('-', 66);
    std::printf("%-52s %10.1f\n",
                "hardware event queue (SNAP/LE as built)", hw);
    std::printf("%-52s %10.1f\n",
                "software task queue emulated on SNAP/LE", sw);
    std::printf("%-52s %9.1f%%\n", "software scheduling overhead",
                100.0 * (sw / hw - 1.0));
    rule('-', 66);
    std::printf("On the mote the same structure costs 507 of 523 "
                "cycles per blink (Fig. 5)\nbecause it also pays "
                "interrupt entry/exit and context save/restore;\nthe "
                "hardware queue removes the scheduler share even on "
                "SNAP itself.\n");
    return 0;
}
