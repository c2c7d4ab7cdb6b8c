let () =
  Alcotest.run "ldx"
    [ ("lang", Test_lang.tests);
      ("cfg", Test_cfg.tests);
      ("instrument", Test_instrument.tests);
      ("osim", Test_osim.tests);
      ("vm", Test_vm.tests);
      ("core", Test_core.tests);
      ("workloads", Test_workloads.tests);
      ("setjmp", Test_setjmp.tests);
      ("extensions", Test_extensions.tests);
      ("signals", Test_signals.tests);
      ("engine-edges", Test_engine_edges.tests);
      ("eval", Test_eval.tests);
      ("report", Test_report.tests);
      ("concurrency-edges", Test_concurrency_edges.tests);
      ("programs", Test_programs.tests);
      ("machine", Test_machine.tests);
      ("inputs", Test_inputs.tests);
      ("integration", Test_integration.tests);
      ("align", Test_align.tests);
      ("obs", Test_obs.tests);
      ("campaign", Test_campaign.tests);
      ("store", Test_store.tests);
      ("queue", Test_queue.tests);
      ("fault", Test_fault.tests);
      ("sched", Test_sched.tests);
      ("prof", Test_prof.tests);
      ("properties", Test_properties.tests);
      ("diff-vm", Test_diff_vm.tests);
      ("snapshot", Test_snapshot.tests);
      ("journals", Test_journals.tests);
      ("frontend", Test_frontend.tests);
      ("vm-golden", Test_vm_golden.tests);
      ("taint", Test_taint.tests) ]
